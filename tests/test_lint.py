"""Tests for the contract-aware static analysis (``repro.devtools.lint``).

Each rule gets the fixture triplet the issue asks for — a positive hit,
the same hit suppressed, and a clean snippet — plus framework-level
coverage (suppression parsing, module-name derivation, the ``--json``
schema, CLI exit codes) and the self-lint gate asserting ``src/repro``
stays clean under the default rule set.
"""

import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.devtools.lint import (
    LintUsageError,
    lint_paths,
    lint_source,
    load_rules,
    module_name,
    parse_suppressions,
)


def run_lint(code, module=None, select=None):
    """Lint a dedented snippet; return the list of fired rule ids."""
    findings = lint_source(textwrap.dedent(code), module=module, select=select)
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# framework
# ---------------------------------------------------------------------------
class TestFramework:
    def test_registry_has_all_families(self):
        rules = load_rules()
        families = {rule_id[: len("REPRO-X")] for rule_id in rules}
        assert {"REPRO-R", "REPRO-H", "REPRO-C", "REPRO-L", "REPRO-P"} <= families

    def test_suppression_parsing_single_and_multiple(self):
        table = parse_suppressions(
            [
                "x = 1",
                "y = 2  # repro: lint-ignore[REPRO-R001] reason text",
                "z = 3  # repro: lint-ignore[REPRO-H001, REPRO-H002]",
            ]
        )
        assert table == {2: {"REPRO-R001"}, 3: {"REPRO-H001", "REPRO-H002"}}

    def test_suppression_wildcard(self):
        code = """
        import numpy as np
        np.random.seed(3)  # repro: lint-ignore[*] fixture
        """
        assert run_lint(code) == []

    def test_module_name_derivation(self, tmp_path):
        pkg = tmp_path / "mypkg" / "sub"
        pkg.mkdir(parents=True)
        (tmp_path / "mypkg" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("")
        assert module_name(pkg / "mod.py") == "mypkg.sub.mod"
        assert module_name(pkg / "__init__.py") == "mypkg.sub"
        assert module_name(tmp_path / "loose.py") == "loose"

    def test_unknown_rule_id_raises_usage_error(self):
        with pytest.raises(LintUsageError):
            lint_source("x = 1", select=["REPRO-NOPE"])

    def test_unparseable_file_reports_e000(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        findings, files = lint_paths([bad])
        assert files == 1
        assert [f.rule for f in findings] == ["REPRO-E000"]


# ---------------------------------------------------------------------------
# RNG discipline
# ---------------------------------------------------------------------------
class TestRngRules:
    def test_r001_global_seed_hit(self):
        assert "REPRO-R001" in run_lint("import numpy as np\nnp.random.seed(3)\n")

    def test_r001_suppressed(self):
        code = """
        import numpy as np
        np.random.seed(3)  # repro: lint-ignore[REPRO-R001] fixture
        """
        assert run_lint(code) == []

    def test_r001_clean(self):
        code = """
        from repro.core.rng import as_generator
        def draw():
            return as_generator(7).random()
        """
        assert run_lint(code) == []

    def test_r002_unseeded_constructor_hit(self):
        code = """
        import numpy as np
        def build():
            return np.random.default_rng()
        """
        assert "REPRO-R002" in run_lint(code)

    def test_r002_alias_resolution(self):
        code = """
        from numpy.random import default_rng
        def build():
            return default_rng(seed=None)
        """
        assert "REPRO-R002" in run_lint(code)

    def test_r002_allowed_inside_rng_seam(self):
        code = """
        import numpy as np
        def build():
            return np.random.default_rng()
        """
        assert run_lint(code, module="repro.core.rng") == []

    def test_r002_seeded_is_clean(self):
        code = """
        import numpy as np
        def build(seed):
            return np.random.default_rng(seed)
        """
        assert run_lint(code) == []

    def test_r003_legacy_draw_hit(self):
        assert "REPRO-R003" in run_lint("import numpy as np\nx = np.random.randint(10)\n")

    def test_r003_generator_method_is_clean(self):
        code = """
        def draw(rng):
            return rng.integers(10)
        """
        assert run_lint(code) == []

    def test_r004_module_level_state_hit(self):
        code = """
        import numpy as np
        RNG = np.random.default_rng(0)
        """
        assert "REPRO-R004" in run_lint(code)

    def test_r004_function_local_is_clean(self):
        code = """
        import numpy as np
        def build():
            rng = np.random.default_rng(0)
            return rng
        """
        assert run_lint(code) == []


# ---------------------------------------------------------------------------
# hash/cache hygiene (scoped to the key-path modules)
# ---------------------------------------------------------------------------
class TestHashRules:
    def test_h001_hash_hit_in_key_path(self):
        assert "REPRO-H001" in run_lint("k = hash((1, 2))\n", module="repro.api.cache")

    def test_h001_clean_outside_key_path(self):
        assert run_lint("k = hash((1, 2))\n", module="repro.engine.base") == []

    def test_h002_id_hit(self):
        code = "def f(obj):\n    return id(obj)\n"
        assert "REPRO-H002" in run_lint(code, module="repro.api.spec")

    def test_h003_dumps_without_sort_keys_hit(self):
        code = """
        import json
        def key(payload):
            return json.dumps(payload)
        """
        assert "REPRO-H003" in run_lint(code, module="repro.api.spec")

    def test_h003_sorted_dumps_clean(self):
        code = """
        import json
        def key(payload):
            return json.dumps(payload, sort_keys=True, separators=(",", ":"))
        """
        assert run_lint(code, module="repro.api.spec") == []

    def test_h003_suppressed(self):
        code = """
        import json
        def key(payload):
            return json.dumps(payload)  # repro: lint-ignore[REPRO-H003] fixture
        """
        assert run_lint(code, module="repro.api.spec") == []

    def test_h004_set_iteration_hit(self):
        code = """
        def walk():
            return [x for x in {1, 2, 3}]
        """
        assert "REPRO-H004" in run_lint(code, module="repro.api.cache")

    def test_h004_sorted_set_clean(self):
        code = """
        def walk():
            for x in sorted({1, 2, 3}):
                yield x
        """
        assert run_lint(code, module="repro.api.cache") == []


# ---------------------------------------------------------------------------
# clock discipline (serve/distributed only)
# ---------------------------------------------------------------------------
class TestClockRule:
    def test_c001_wall_clock_hit_in_serve(self):
        code = """
        import time
        def deadline(timeout):
            return time.time() + timeout
        """
        assert "REPRO-C001" in run_lint(code, module="repro.api.serve.server")

    def test_c001_hit_in_distributed(self):
        code = "import time\nT = time.time\ndef f():\n    return time.time()\n"
        assert "REPRO-C001" in run_lint(code, module="repro.api.distributed")

    def test_c001_monotonic_clean(self):
        code = """
        import time
        def deadline(timeout):
            return time.monotonic() + timeout
        """
        assert run_lint(code, module="repro.api.serve.server") == []

    def test_c001_out_of_scope_clean(self):
        code = "import time\nstamp = time.time()\n"
        assert run_lint(code, module="repro.bench.perf_engines") == []

    def test_c001_suppressed_display_field(self):
        code = """
        import time
        def stamp():
            return time.time()  # repro: lint-ignore[REPRO-C001] display timestamp
        """
        assert run_lint(code, module="repro.api.serve.jobs") == []


# ---------------------------------------------------------------------------
# lock discipline
# ---------------------------------------------------------------------------
_LOCK_FIXTURE = """
import threading

class Table:
    def __init__(self):
        self._lock = threading.Lock()
        self.status = "queued"  # guarded-by: _lock

    def bad(self):
        self.status = "running"

    def good(self):
        with self._lock:
            self.status = "running"

    def _peek_locked(self):
        return self.status
"""


class TestLockRules:
    def test_l001_unguarded_access_hit(self):
        rules = run_lint(_LOCK_FIXTURE)
        assert rules == ["REPRO-L001"]  # bad() only; good() and *_locked are fine

    def test_l001_suppressed(self):
        code = _LOCK_FIXTURE.replace(
            'self.status = "running"\n\n    def good',
            'self.status = "running"  # repro: lint-ignore[REPRO-L001] fixture\n\n    def good',
        )
        assert run_lint(code) == []

    def test_l002_blocking_under_lock_hit(self):
        code = """
        import threading
        import time

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()

            def bad(self, sock):
                with self._lock:
                    time.sleep(0.1)
                    sock.recv(4096)
        """
        rules = run_lint(code, module="repro.api.serve.server")
        assert rules == ["REPRO-L002", "REPRO-L002"]

    def test_l002_condition_wait_exempt(self):
        code = """
        import threading

        class Waiter:
            def __init__(self):
                self.cond = threading.Condition()
                self.done = False  # guarded-by: cond

            def wait_done(self, timeout):
                with self.cond:
                    while not self.done:
                        self.cond.wait(timeout)
        """
        assert run_lint(code, module="repro.api.distributed") == []

    def test_l002_string_join_clean(self):
        code = """
        import threading

        class Fmt:
            def __init__(self):
                self._lock = threading.Lock()

            def render(self, items):
                with self._lock:
                    return ",".join(items)
        """
        assert run_lint(code, module="repro.api.serve.server") == []

    def test_l002_out_of_scope_clean(self):
        code = """
        import threading
        import time

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()

            def slow(self):
                with self._lock:
                    time.sleep(0.1)
        """
        assert run_lint(code, module="repro.engine.base") == []


# ---------------------------------------------------------------------------
# purity contracts
# ---------------------------------------------------------------------------
_PURITY_HEADER = """
class Footprint:
    def __init__(self, samples):
        self.samples = samples

class Proto:
    tick_footprint = Footprint(samples=2)
"""


_RULE_HEADER = """
class CountsProto:
    tick_samples = 2
"""


class TestPurityRules:
    def test_p001_self_mutation_hit(self):
        code = _PURITY_HEADER + """
    def tick_values(self, state, own, observed):
        self.count = 1
        return own
"""
        assert "REPRO-P001" in run_lint(code)

    def test_p001_argument_mutation_hit(self):
        code = _PURITY_HEADER + """
    def tick_values(self, state, own, observed):
        observed.sort()
        return own
"""
        assert "REPRO-P001" in run_lint(code)

    def test_p001_local_work_clean(self):
        code = _PURITY_HEADER + """
    def tick_values(self, state, own, observed):
        out = list(own)
        out.sort()
        return out
"""
        assert run_lint(code) == []

    def test_p001_footprint_none_opt_out(self):
        code = """
        class Base:
            tick_footprint = None

            def tick_values(self, state, own, observed):
                self.count = 1
                return own
        """
        assert run_lint(code) == []

    def test_p002_rng_draw_hit(self):
        code = _PURITY_HEADER + """
    def tick_values(self, state, own, observed):
        return self.rng.integers(2)
"""
        assert "REPRO-P002" in run_lint(code)

    def test_p002_suppressed(self):
        code = _PURITY_HEADER + """
    def tick_values(self, state, own, observed):
        return self.rng.integers(2)  # repro: lint-ignore[REPRO-P002] fixture
"""
        assert run_lint(code) == []

    def test_p001_tick_rule_argument_mutation_hit(self):
        code = _RULE_HEADER + """
    def tick_rule(self, own, sampled, m):
        sampled.append(own)
        return sampled[0]
"""
        assert "REPRO-P001" in run_lint(code)

    def test_p001_tick_rule_self_mutation_hit(self):
        code = _RULE_HEADER + """
    def tick_rule(self, own, sampled, m):
        self.last = own
        return own
"""
        assert "REPRO-P001" in run_lint(code)

    def test_p002_tick_rule_rng_draw_hit(self):
        code = _RULE_HEADER + """
    def tick_rule(self, own, sampled, m):
        return sampled[self.rng.integers(2)]
"""
        assert "REPRO-P002" in run_lint(code)

    def test_tick_rule_local_work_clean(self):
        code = _RULE_HEADER + """
    def tick_rule(self, own, sampled, m):
        first, second = sampled
        labels = [first, second]
        labels.sort()
        return first if first == second else own
"""
        assert run_lint(code) == []

    def test_tick_rule_without_sample_count_not_checked(self):
        code = """
        class Other:
            def tick_rule(self, own, sampled, m):
                self.last = own
                return own
        """
        assert run_lint(code) == []

    def test_p003_signature_mismatch_detected(self):
        from repro.api.registry import ParamSpec
        from repro.devtools.rules_purity import _audit_factory

        def bad_factory(n, degree):
            return None

        findings = _audit_factory(
            bad_factory, (ParamSpec("nope", "int"),), 1, "topology 'fixture'"
        )
        messages = "\n".join(f.message for f in findings)
        assert "nope" in messages  # declared but unaccepted
        assert "degree" in messages  # required but undeclared

    def test_p003_matching_signature_clean(self):
        from repro.api.registry import ParamSpec
        from repro.devtools.rules_purity import _audit_factory

        def good_factory(n, degree, graph_seed=None):
            return None

        findings = _audit_factory(
            good_factory,
            (ParamSpec("degree", "int", required=True), ParamSpec("graph_seed", "int")),
            1,
            "topology 'fixture'",
        )
        assert findings == []

    def test_p003_live_registries_pass(self):
        assert load_rules()["REPRO-P003"].check([]) == []


# ---------------------------------------------------------------------------
# CLI: exit codes, --json schema, repro list section
# ---------------------------------------------------------------------------
class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(rng):\n    return rng.random()\n")
        assert main(["lint", str(clean)]) == 0
        assert "0 finding(s) in 1 file(s)" in capsys.readouterr().err

    def test_violation_exits_one_with_rule_id(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nnp.random.seed(1)\n")
        assert main(["lint", str(bad)]) == 1
        assert "REPRO-R001" in capsys.readouterr().out

    def test_json_schema(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nnp.random.seed(1)\n")
        assert main(["lint", str(bad), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["files"] == 1
        assert payload["count"] == len(payload["findings"]) == 1
        finding = payload["findings"][0]
        assert set(finding) == {"rule", "path", "line", "col", "message"}
        assert finding["rule"] == "REPRO-R001"
        assert finding["line"] == 2

    def test_github_annotations(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nnp.random.seed(1)\n")
        assert main(["lint", str(bad), "--github"]) == 1
        assert "::error file=" in capsys.readouterr().out

    def test_select_runs_only_named_rules(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nnp.random.seed(1)\n")
        assert main(["lint", str(bad), "--select", "REPRO-H001"]) == 0

    def test_unknown_rule_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(tmp_path), "--select", "REPRO-NOPE"])
        assert excinfo.value.code == 2

    def test_missing_path_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(tmp_path / "does-not-exist")])
        assert excinfo.value.code == 2

    def test_list_prints_lint_rules_section(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "lint rules" in out
        assert "REPRO-R001" in out
        assert "REPRO-P003" in out


# ---------------------------------------------------------------------------
# the gate itself
# ---------------------------------------------------------------------------
class TestSelfLint:
    def test_src_repro_is_clean_under_default_rules(self):
        package_dir = Path(repro.__file__).parent
        findings, files = lint_paths([package_dir])
        assert files > 50  # the whole tree was visited, not a stub dir
        assert [f.format() for f in findings] == []


class TestMypyStarterGate:
    def test_starter_scope_is_clean(self):
        mypy_api = pytest.importorskip("mypy.api", reason="mypy is a dev extra")
        root = Path(repro.__file__).parent
        targets = [
            str(root / "core" / "rng.py"),
            str(root / "api" / "spec.py"),
            str(root / "api" / "cache.py"),
        ]
        stdout, stderr, status = mypy_api.run(["--check-untyped-defs"] + targets)
        assert status == 0, stdout + stderr
