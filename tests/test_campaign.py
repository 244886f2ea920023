"""Tests for the campaign layer: sweep expansion, seed derivation,
executor identity, and the content-addressed result cache.

The acceptance bar (ISSUE 4): ``run_campaign`` with ``executor="process"``
and ``executor="serial"`` produce identical ``CampaignResult``s (seeds
independent of executor, worker count, and chunking), and a warm-cache
re-run performs zero engine runs.
"""

import json

import pytest

from repro.api import (
    CampaignSpec,
    ProcessExecutor,
    ResultCache,
    SerialExecutor,
    SimulationSpec,
    SweepSpec,
    point_seed,
    run_campaign,
    simulate,
    spec_key,
)
from repro.api import executors as executors_module
from repro.api.cache import CACHE_FORMAT
from repro.core.exceptions import ConfigurationError, ExperimentError


def _base(n=300, reps=2, **overrides):
    kwargs = dict(
        protocol="two-choices",
        n=n,
        initial="two-colors",
        initial_params={"gap": n // 5},
        reps=reps,
        max_steps=40 * n,
    )
    kwargs.update(overrides)
    return SimulationSpec(**kwargs)


def _campaign(ns=(300, 400), seed=11, **kwargs):
    return CampaignSpec(base=_base(), sweep=SweepSpec(axes={"n": list(ns)}), seed=seed, **kwargs)


def _deterministic(result):
    """The executor/cache-independent part of a campaign payload."""
    payload = result.to_dict()
    del payload["execution"]
    return payload


class TestSweepSpec:
    def test_product_expansion_row_major(self):
        sweep = SweepSpec(axes={"n": [1, 2], "reps": [10, 20, 30]})
        assert sweep.size == 6
        expansion = sweep.expand()
        assert expansion[0] == {"n": 1, "reps": 10}
        assert expansion[1] == {"n": 1, "reps": 20}
        assert expansion[-1] == {"n": 2, "reps": 30}

    def test_zip_expansion_aligns_axes(self):
        sweep = SweepSpec(axes={"n": [100, 200], "seed": [7, 8]}, mode="zip")
        assert sweep.size == 2
        assert sweep.expand() == [{"n": 100, "seed": 7}, {"n": 200, "seed": 8}]

    def test_zip_rejects_unequal_lengths(self):
        with pytest.raises(ConfigurationError, match="equal lengths"):
            SweepSpec(axes={"n": [1, 2], "seed": [7]}, mode="zip")

    def test_empty_axes_is_a_single_point(self):
        sweep = SweepSpec()
        assert sweep.size == 1
        assert sweep.expand() == [{}]

    def test_rejects_unknown_axis(self):
        with pytest.raises(ConfigurationError, match="unknown sweep axis"):
            SweepSpec(axes={"bogus": [1]})

    def test_rejects_dotted_axis_outside_params(self):
        with pytest.raises(ConfigurationError, match="_params"):
            SweepSpec(axes={"n.value": [1]})

    def test_rejects_empty_axis(self):
        with pytest.raises(ConfigurationError, match="no values"):
            SweepSpec(axes={"n": []})

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="unknown sweep mode"):
            SweepSpec(axes={"n": [1]}, mode="outer")

    def test_round_trip_survives_json(self):
        sweep = SweepSpec(axes={"n": [1, 2], "initial_params.k": [2, 4]}, mode="zip")
        hopped = SweepSpec.from_dict(json.loads(json.dumps(sweep.to_dict())))
        assert hopped == sweep

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown SweepSpec"):
            SweepSpec.from_dict({"axes": {}, "mode": "product", "bogus": 1})


class TestCampaignSpec:
    def test_points_pin_position_derived_seeds(self):
        campaign = _campaign(ns=(300, 400, 500), seed=11)
        specs = campaign.points()
        assert [s.n for s in specs] == [300, 400, 500]
        assert [s.seed for s in specs] == [point_seed(11, i) for i in range(3)]

    def test_seeds_do_not_depend_on_grid_size(self):
        small = _campaign(ns=(300, 400), seed=11).points()
        large = _campaign(ns=(300, 400, 500, 600), seed=11).points()
        assert [s.seed for s in small] == [s.seed for s in large[:2]]

    def test_explicit_seed_axis_wins(self):
        campaign = CampaignSpec(
            base=_base(),
            sweep=SweepSpec(axes={"n": [300, 400], "seed": [71, 72]}, mode="zip"),
            seed=11,
        )
        assert [s.seed for s in campaign.points()] == [71, 72]

    def test_rejects_seeded_base(self):
        with pytest.raises(ConfigurationError, match="campaign owns seeding"):
            CampaignSpec(base=_base(seed=5), sweep=SweepSpec(axes={"n": [300]}))

    def test_sweep_accepts_plain_axes_mapping(self):
        campaign = CampaignSpec(base=_base(), sweep={"n": [300, 400]}, seed=3)
        assert isinstance(campaign.sweep, SweepSpec)
        assert campaign.size == 2

    def test_dotted_override_merges_into_base_params(self):
        campaign = CampaignSpec(
            base=_base(initial="theorem-1-1-gap", initial_params={"z": 2.0}),
            sweep={"initial_params.k": [2, 8]},
            seed=3,
        )
        specs = campaign.points()
        assert specs[0].initial_params == {"z": 2.0, "k": 2}
        assert specs[1].initial_params == {"z": 2.0, "k": 8}
        # the base itself is untouched
        assert campaign.base.initial_params == {"z": 2.0}

    def test_whole_dict_override_replaces_field(self):
        campaign = CampaignSpec(
            base=_base(),
            sweep={"initial_params": [{"gap": 10}, {"gap": 50}]},
            seed=3,
        )
        assert [s.initial_params for s in campaign.points()] == [{"gap": 10}, {"gap": 50}]

    def test_round_trip_survives_json(self):
        campaign = CampaignSpec(
            base=_base(),
            sweep=SweepSpec(axes={"n": [300, 400], "initial_params.gap": [10, 20]}, mode="zip"),
            seed=17,
            name="round-trip",
        )
        hopped = CampaignSpec.from_dict(json.loads(json.dumps(campaign.to_dict())))
        assert hopped == campaign
        assert [s.to_dict() for s in hopped.points()] == [s.to_dict() for s in campaign.points()]

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown CampaignSpec"):
            CampaignSpec.from_dict({"base": _base().to_dict(), "bogus": 1})

    def test_replace(self):
        campaign = _campaign(seed=1)
        assert campaign.replace(seed=2).seed == 2 and campaign.seed == 1


class TestPointSeed:
    def test_pure_function_of_master_and_index(self):
        assert point_seed(11, 3) == point_seed(11, 3)
        assert point_seed(11, 3) != point_seed(11, 4)
        assert point_seed(11, 3) != point_seed(12, 3)

    def test_fits_simulation_spec_seed(self):
        seed = point_seed(2**62, 10_000)
        assert isinstance(seed, int) and 0 <= seed < 2**63


class TestRunCampaign:
    def test_serial_matches_direct_simulate(self):
        campaign = _campaign()
        result = run_campaign(campaign)
        assert result.engine_runs == campaign.size
        for spec, point in zip(campaign.points(), result.points):
            got, expected = point.result.to_dict(), simulate(spec).to_dict()
            del got["elapsed_seconds"], expected["elapsed_seconds"]  # wall clock
            assert got == expected

    def test_process_executor_matches_serial(self):
        campaign = _campaign(ns=(300, 350, 400))
        serial = run_campaign(campaign, executor="serial")
        process = run_campaign(campaign, executor="process", workers=2)
        assert _deterministic(process) == _deterministic(serial)
        assert process.executor == "process"

    def test_chunking_and_worker_count_do_not_matter(self):
        campaign = _campaign(ns=(300, 350, 400, 450))
        one = run_campaign(campaign, executor="process", workers=2, chunksize=1)
        other = run_campaign(campaign, executor="process", workers=4, chunksize=3)
        assert _deterministic(one) == _deterministic(other)

    def test_executor_objects_pass_through(self):
        campaign = _campaign()
        viaobj = run_campaign(campaign, executor=ProcessExecutor(workers=2))
        assert _deterministic(viaobj) == _deterministic(run_campaign(campaign))

    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            run_campaign(_campaign(), executor="gpu")

    def test_duck_typed_executor_required(self):
        with pytest.raises(ConfigurationError, match="map_payloads"):
            run_campaign(_campaign(), executor=object())

    def test_short_executor_output_rejected(self):
        class Lossy(SerialExecutor):
            def map_payloads(self, payloads):
                return list(super().map_payloads(payloads))[:-1]

        with pytest.raises(ConfigurationError, match="payload"):
            run_campaign(_campaign(), executor=Lossy())

    def test_overlong_executor_output_rejected(self):
        class Chatty(SerialExecutor):
            def map_payloads(self, payloads):
                out = list(super().map_payloads(payloads))
                return out + out[-1:]

        with pytest.raises(ConfigurationError, match="more than"):
            run_campaign(_campaign(), executor=Chatty())

    def test_rejects_non_campaign(self):
        with pytest.raises(ConfigurationError, match="CampaignSpec"):
            run_campaign(_base())

    def test_traced_point_keeps_its_trace_and_skips_cache(self, tmp_path):
        campaign = CampaignSpec(
            base=_base(reps=1, record_trace=True, trace_every=2.0),
            sweep={"seed": [5]},
        )
        result = run_campaign(campaign, cache=str(tmp_path))
        point = result.points[0]
        assert point.result.runs[0].trace is not None
        assert len(point.result.runs[0].trace) > 0
        assert point.key is None and not point.cached
        assert len(ResultCache(tmp_path)) == 0
        # a second run must execute again (never served stale from cache)
        assert run_campaign(campaign, cache=str(tmp_path)).engine_runs == 1


class TestCampaignCache:
    def test_warm_replay_performs_zero_engine_runs(self, tmp_path, monkeypatch):
        campaign = _campaign()
        cold = run_campaign(campaign, cache=str(tmp_path))
        assert cold.engine_runs == campaign.size and cold.cache_hits == 0

        def explode(payload):  # pragma: no cover - the assertion is that it never runs
            raise AssertionError("warm replay touched an engine")

        monkeypatch.setattr(executors_module, "execute_spec_payload", explode)
        warm = run_campaign(campaign, cache=str(tmp_path))
        assert warm.engine_runs == 0
        assert warm.cache_hits == campaign.size
        assert all(p.cached for p in warm.points)
        assert _deterministic(warm) == _deterministic(cold)

    def test_interrupted_campaign_keeps_its_completed_prefix(self, tmp_path, monkeypatch):
        """Results are persisted per point as they arrive, so a crash
        mid-campaign leaves the completed points cached for resume."""
        campaign = _campaign(ns=(300, 400, 500))
        real = executors_module.execute_spec_payload
        calls = {"count": 0}

        def flaky(payload):
            if calls["count"] == 2:
                raise RuntimeError("simulated crash on point 3")
            calls["count"] += 1
            return real(payload)

        monkeypatch.setattr(executors_module, "execute_spec_payload", flaky)
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_campaign(campaign, cache=str(tmp_path))
        assert len(ResultCache(tmp_path)) == 2  # the completed prefix survived

        monkeypatch.setattr(executors_module, "execute_spec_payload", real)
        resumed = run_campaign(campaign, cache=str(tmp_path))
        assert resumed.engine_runs == 1 and resumed.cache_hits == 2

    def test_keyboard_interrupt_mid_campaign_resumes_from_cache(self, tmp_path, monkeypatch):
        """Ctrl-C mid-campaign behaves like a crash: the completed prefix
        stays cached and a rerun finishes only the missing points, with
        the resumed result value-identical to an uninterrupted run."""
        campaign = _campaign(ns=(300, 400, 500))
        real = executors_module.execute_spec_payload
        calls = {"count": 0}

        def interrupted(payload):
            if calls["count"] == 2:
                raise KeyboardInterrupt
            calls["count"] += 1
            return real(payload)

        monkeypatch.setattr(executors_module, "execute_spec_payload", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(campaign, cache=str(tmp_path))
        assert len(ResultCache(tmp_path)) == 2

        monkeypatch.setattr(executors_module, "execute_spec_payload", real)
        resumed = run_campaign(campaign, cache=str(tmp_path))
        assert resumed.engine_runs == 1 and resumed.cache_hits == 2
        assert _deterministic(resumed) == _deterministic(run_campaign(campaign))

    def test_partial_cache_resumes_missing_points_only(self, tmp_path):
        campaign = _campaign(ns=(300, 400, 500))
        specs = campaign.points()
        cache = ResultCache(tmp_path)
        cache.put(specs[1], simulate(specs[1]))
        result = run_campaign(campaign, cache=cache)
        assert result.engine_runs == 2
        assert [p.cached for p in result.points] == [False, True, False]

    def test_cache_accepts_path_cache_object_and_rejects_junk(self, tmp_path):
        campaign = _campaign()
        run_campaign(campaign, cache=tmp_path)  # os.PathLike
        assert run_campaign(campaign, cache=ResultCache(tmp_path)).cache_hits == campaign.size
        with pytest.raises(ConfigurationError, match="cache"):
            run_campaign(campaign, cache=42)

    def test_cross_executor_cache_reuse(self, tmp_path):
        campaign = _campaign()
        cold = run_campaign(campaign, executor="process", workers=2, cache=str(tmp_path))
        warm = run_campaign(campaign, executor="serial", cache=str(tmp_path))
        assert warm.engine_runs == 0
        assert _deterministic(warm) == _deterministic(cold)


class TestResultCache:
    def test_round_trip_is_value_exact(self, tmp_path):
        spec = _base(seed=3)
        result = simulate(spec)
        cache = ResultCache(tmp_path)
        cache.put(spec, result)
        assert spec in cache
        assert cache.get(spec).to_dict() == result.to_dict()

    def test_content_addressing_layout(self, tmp_path):
        spec = _base(seed=3)
        cache = ResultCache(tmp_path)
        path = cache.put(spec, simulate(spec))
        key = spec_key(spec)
        assert path == tmp_path / key[:2] / f"{key}.json"
        assert list(cache.keys()) == [key] and len(cache) == 1

    def test_key_is_content_not_identity(self):
        spec = _base(seed=3)
        assert spec_key(spec) == spec_key(SimulationSpec.from_dict(spec.to_dict()))
        assert spec_key(spec) == spec_key(spec.to_dict())
        assert spec_key(spec) != spec_key(spec.replace(seed=4))

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get(_base(seed=3)) is None

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        spec = _base(seed=3)
        cache = ResultCache(tmp_path)
        path = cache.put(spec, simulate(spec))
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(spec) is None

    @pytest.mark.parametrize("result_value", [None, 7, [], {"runs": []}])
    def test_malformed_result_block_reads_as_miss(self, tmp_path, result_value):
        spec = _base(seed=3)
        cache = ResultCache(tmp_path)
        path = cache.put(spec, simulate(spec))
        path.write_text(
            json.dumps({"format": CACHE_FORMAT, "key": path.stem, "result": result_value}),
            encoding="utf-8",
        )
        assert cache.get(spec) is None

    def test_older_format_reads_as_miss(self, tmp_path):
        # A format-1 entry holds values computed before the counts tick
        # engines' scalar one-tick chain; it must never be served.
        spec = _base(seed=3)
        cache = ResultCache(tmp_path)
        path = cache.put(spec, simulate(spec))
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["format"] == CACHE_FORMAT == 2
        payload["format"] = 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.get(spec) is None
        assert spec not in cache

    def test_spec_mismatch_raises(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec, other = _base(seed=3), _base(seed=4)
        entry = cache.put(other, simulate(other))
        target = cache.path_for(spec_key(spec))
        target.parent.mkdir(parents=True, exist_ok=True)
        entry.replace(target)
        with pytest.raises(ExperimentError, match="different spec"):
            cache.get(spec)

    def test_wrong_payload_for_spec_rejected_on_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec, other = _base(seed=3), _base(seed=4)
        with pytest.raises(ExperimentError, match="different spec"):
            cache.put(spec, simulate(other))

    def test_unseeded_and_traced_specs_refused(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ConfigurationError, match="seed=None"):
            cache.get(_base(seed=None))
        with pytest.raises(ConfigurationError, match="trace"):
            cache.get(_base(reps=1, seed=3, record_trace=True))


class TestCampaignResult:
    def test_tidy_table_shape(self):
        campaign = CampaignSpec(
            base=_base(), sweep={"n": [300, 400], "initial_params.gap": [30, 40]}, seed=5
        )
        result = run_campaign(campaign)
        columns, rows = result.table()
        assert columns[:2] == ["n", "initial_params.gap"]
        assert {"reps", "converged_rate", "mean_parallel_time"} <= set(columns)
        assert len(rows) == 4 and all(len(row) == len(columns) for row in rows)
        assert result.column("n") == [300, 300, 400, 400]
        assert result.column("reps") == [2, 2, 2, 2]
        with pytest.raises(ConfigurationError, match="unknown column"):
            result.column("bogus")

    def test_format_renders_table_and_status(self):
        text = run_campaign(_campaign(name="fmt")).format()
        assert "campaign fmt" in text and "mean_parallel_time" in text

    def test_to_dict_separates_execution_from_values(self, tmp_path):
        campaign = _campaign()
        payload = run_campaign(campaign, cache=str(tmp_path)).to_dict()
        assert set(payload) == {"campaign", "columns", "rows", "points", "execution"}
        assert payload["execution"]["engine_runs"] == campaign.size
        assert payload["campaign"] == campaign.to_dict()
        hopped = json.loads(json.dumps(payload))
        assert hopped["rows"] == payload["rows"]

    def test_results_in_expansion_order(self):
        campaign = _campaign(ns=(300, 400, 500))
        result = run_campaign(campaign, executor="process", workers=3)
        assert [p.index for p in result.points] == [0, 1, 2]
        assert [p.result.spec.n for p in result.points] == [300, 400, 500]
