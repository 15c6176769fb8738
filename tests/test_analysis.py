"""Tests for the static analyzer (``repro.analysis`` / ``repro lint``).

Each rule gets (at least) one positive fixture that must produce a
finding and one clean fixture that must not; on top of that the
suppression layers (inline pragma, per-file config), the JSON report
round-trip, the CLI, and — the actual gate — a self-run asserting
``repro lint src`` is clean on this very tree.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis import (
    ALL_RULES,
    LintConfig,
    LintReport,
    collect_files,
    run_lint,
)
from repro.analysis.core import (
    FileContext,
    Finding,
    Project,
    match_path,
    parse_pragmas,
)
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.exceptions import ExceptionHygieneRule
from repro.analysis.rules.ledgertags import LedgerTagRule
from repro.analysis.rules.lockorder import LockOrderRule
from repro.analysis.rules.protocol import ProtocolDriftRule
from repro.analysis.rules.shm import ShmLifetimeRule
from repro.cli import main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")


def ctx(path: str, source: str) -> FileContext:
    source = textwrap.dedent(source)
    return FileContext(path, source, ast.parse(source))


def project(*contexts: FileContext, config: LintConfig | None = None) -> Project:
    return Project(contexts, config or LintConfig())


def findings(rule, *contexts: FileContext, config: LintConfig | None = None):
    return list(rule.check(project(*contexts, config=config)))


# --------------------------------------------------------------------- #
# R001 determinism


class TestDeterminism:
    def test_legacy_np_random_flagged(self):
        bad = ctx("pkg/mod.py", """
            import numpy as np
            def f():
                np.random.seed(0)
                return np.random.rand(3)
        """)
        out = findings(DeterminismRule(), bad)
        assert len(out) == 2
        assert all(f.rule == "R001" for f in out)
        assert "seed" in out[0].message

    def test_seeded_default_rng_clean(self):
        good = ctx("pkg/mod.py", """
            import numpy as np
            def f(seed):
                rng = np.random.default_rng(seed)
                return rng.standard_normal(3)
        """)
        assert findings(DeterminismRule(), good) == []

    def test_unseeded_default_rng_flagged_outside_entropy_module(self):
        bad = ctx("pkg/mod.py", """
            import numpy as np
            rng = np.random.default_rng()
        """)
        out = findings(DeterminismRule(), bad)
        assert len(out) == 1 and "unseeded" in out[0].message

    def test_unseeded_default_rng_allowed_in_entropy_module(self):
        good = ctx("src/repro/tensor/random.py", """
            import numpy as np
            rng = np.random.default_rng()
        """)
        assert findings(DeterminismRule(), good) == []

    def test_wall_clock_flagged_only_in_scoped_paths(self):
        source = """
            import time
            def f():
                return time.time()
        """
        scoped = ctx("src/repro/backends/thing.py", source)
        unscoped = ctx("src/repro/bench/thing.py", source)
        assert len(findings(DeterminismRule(), scoped)) == 1
        assert findings(DeterminismRule(), unscoped) == []

    def test_perf_counter_is_fine(self):
        good = ctx("src/repro/backends/thing.py", """
            import time
            def f():
                return time.perf_counter()
        """)
        assert findings(DeterminismRule(), good) == []


# --------------------------------------------------------------------- #
# R002 shm-lifetime


class TestShmLifetime:
    def test_unpaired_create_flagged(self):
        bad = ctx("pkg/mod.py", """
            from multiprocessing.shared_memory import SharedMemory
            def alloc(n):
                shm = SharedMemory(create=True, size=n)
                return shm.name
        """)
        out = findings(ShmLifetimeRule(), bad)
        assert len(out) == 1 and out[0].rule == "R002"

    def test_finalize_in_scope_clean(self):
        good = ctx("pkg/mod.py", """
            import weakref
            from multiprocessing.shared_memory import SharedMemory
            def alloc(n, view):
                shm = SharedMemory(create=True, size=n)
                weakref.finalize(view, shm.unlink)
                return shm
        """)
        assert findings(ShmLifetimeRule(), good) == []

    def test_unlink_in_scope_clean(self):
        good = ctx("pkg/mod.py", """
            from multiprocessing.shared_memory import SharedMemory
            def probe(n):
                shm = SharedMemory(create=True, size=n)
                try:
                    return True
                finally:
                    shm.close()
                    shm.unlink()
        """)
        assert findings(ShmLifetimeRule(), good) == []

    def test_transfer_annotation_honored(self):
        good = ctx("pkg/mod.py", """
            from multiprocessing.shared_memory import SharedMemory
            def alloc(n):
                shm = SharedMemory(create=True, size=n)  # repro-lint: shm-transfer=caller unlinks
                return shm
        """)
        assert findings(ShmLifetimeRule(), good) == []

    def test_nested_function_is_its_own_scope(self):
        bad = ctx("pkg/mod.py", """
            from multiprocessing.shared_memory import SharedMemory
            def outer(n):
                def inner():
                    return SharedMemory(create=True, size=n)
                x = inner()
                x.unlink()  # outer's unlink must not excuse inner's create
        """)
        out = findings(ShmLifetimeRule(), bad)
        assert len(out) == 1 and "inner" in out[0].message


# --------------------------------------------------------------------- #
# R003 lock-order


LOCK_CYCLE = """
    import threading

    class A:
        def __init__(self, b: "B"):
            self._lock = threading.Lock()
            self.b = b
        def f(self):
            with self._lock:
                self.b.g()

    class B:
        def __init__(self, a: "A"):
            self._lock = threading.Lock()
            self.a = a
        def g(self):
            with self._lock:
                pass
        def h(self):
            with self._lock:
                self.a.f()
"""


class TestLockOrder:
    def test_cross_class_cycle_flagged(self):
        out = findings(LockOrderRule(), ctx("pkg/mod.py", LOCK_CYCLE))
        assert len(out) == 1
        assert "cycle" in out[0].message
        assert "A._lock" in out[0].message and "B._lock" in out[0].message

    def test_consistent_order_clean(self):
        good = ctx("pkg/mod.py", """
            import threading

            class Inner:
                def __init__(self):
                    self._lock = threading.Lock()
                def g(self):
                    with self._lock:
                        pass

            class Outer:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.inner = Inner()
                def f(self):
                    with self._lock:
                        self.inner.g()
        """)
        assert findings(LockOrderRule(), good) == []

    def test_plain_lock_self_nesting_flagged(self):
        bad = ctx("pkg/mod.py", """
            import threading
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                def f(self):
                    with self._lock:
                        with self._lock:
                            pass
        """)
        out = findings(LockOrderRule(), bad)
        assert len(out) == 1 and "self-deadlock" in out[0].message

    def test_rlock_self_nesting_allowed(self):
        good = ctx("pkg/mod.py", """
            import threading
            class C:
                def __init__(self):
                    self._lock = threading.RLock()
                def f(self):
                    with self._lock:
                        with self._lock:
                            pass
        """)
        assert findings(LockOrderRule(), good) == []

    def test_self_call_reacquire_flagged_for_plain_lock(self):
        bad = ctx("pkg/mod.py", """
            import threading
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                def f(self):
                    with self._lock:
                        self.g()
                def g(self):
                    with self._lock:
                        pass
        """)
        out = findings(LockOrderRule(), bad)
        assert len(out) == 1 and "self-deadlock" in out[0].message

    def test_condition_aliases_its_wrapped_lock(self):
        bad = ctx("pkg/mod.py", """
            import threading
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition(self._lock)
                def f(self):
                    with self._lock:
                        with self._cond:
                            pass
        """)
        out = findings(LockOrderRule(), bad)
        assert len(out) == 1 and "self-deadlock" in out[0].message


# --------------------------------------------------------------------- #
# R004 protocol-drift


BASE_MODULE = """
    import abc

    class ExecutionBackend(abc.ABC):
        @abc.abstractmethod
        def ttm(self, handle, matrix, mode, *, tag="ttm"):
            ...

        @abc.abstractmethod
        def gather(self, handle):
            ...

        def helper(self):
            return None
"""


class TestProtocolDrift:
    def test_conforming_backend_clean(self):
        base = ctx("src/repro/backends/base.py", BASE_MODULE)
        impl = ctx("src/repro/backends/good.py", """
            from repro.backends.base import ExecutionBackend
            class GoodBackend(ExecutionBackend):
                def ttm(self, handle, matrix, mode, *, tag="ttm"):
                    return handle
                def gather(self, handle):
                    return handle
        """)
        assert findings(ProtocolDriftRule(), base, impl) == []

    def test_missing_method_flagged(self):
        base = ctx("src/repro/backends/base.py", BASE_MODULE)
        impl = ctx("src/repro/backends/bad.py", """
            from repro.backends.base import ExecutionBackend
            class BadBackend(ExecutionBackend):
                def ttm(self, handle, matrix, mode, *, tag="ttm"):
                    return handle
        """)
        out = findings(ProtocolDriftRule(), base, impl)
        assert len(out) == 1 and "gather" in out[0].message

    def test_default_drift_flagged(self):
        base = ctx("src/repro/backends/base.py", BASE_MODULE)
        impl = ctx("src/repro/backends/bad.py", """
            from repro.backends.base import ExecutionBackend
            class BadBackend(ExecutionBackend):
                def ttm(self, handle, matrix, mode, *, tag="TTM"):
                    return handle
                def gather(self, handle):
                    return handle
        """)
        out = findings(ProtocolDriftRule(), base, impl)
        assert len(out) == 1 and "default" in out[0].message

    def test_renamed_parameter_flagged(self):
        base = ctx("src/repro/backends/base.py", BASE_MODULE)
        impl = ctx("src/repro/backends/bad.py", """
            from repro.backends.base import ExecutionBackend
            class BadBackend(ExecutionBackend):
                def ttm(self, h, matrix, mode, *, tag="ttm"):
                    return h
                def gather(self, handle):
                    return handle
        """)
        out = findings(ProtocolDriftRule(), base, impl)
        assert len(out) == 1 and "positional" in out[0].message

    def test_indirect_subclass_overrides_checked(self):
        base = ctx("src/repro/backends/base.py", BASE_MODULE)
        impl = ctx("src/repro/backends/bad.py", """
            from repro.backends.base import ExecutionBackend
            class GoodBackend(ExecutionBackend):
                def ttm(self, handle, matrix, mode, *, tag="ttm"):
                    return handle
                def gather(self, handle):
                    return handle
            class PoolBackend(GoodBackend):
                def ttm(self, handle, matrix, mode, *, tag="TTM"):
                    return handle
        """)
        out = findings(ProtocolDriftRule(), base, impl)
        # the inherited gather is not "missing"; the drifted ttm is flagged
        assert len(out) == 1 and "PoolBackend.ttm" in out[0].message

    def test_non_backend_classes_ignored(self):
        base = ctx("src/repro/backends/base.py", BASE_MODULE)
        other = ctx("src/repro/other.py", """
            class Unrelated:
                def ttm(self, completely, different):
                    return None
        """)
        assert findings(ProtocolDriftRule(), base, other) == []


# --------------------------------------------------------------------- #
# R005 ledger-tag registry


SCHEDULE_MODULE = """
    def compile_tree(tree):
        steps = [
            Step(op="ttm", tag=f"ttm:n{tree.uid}"),
            Step(op="svd", tag=f"svd:m{tree.mode}"),
            Step(op="sketch", tag="sketch"),
        ]
        return steps
"""

TAG_BASE_MODULE = """
    import abc

    class ExecutionBackend(abc.ABC):
        @abc.abstractmethod
        def ttm(self, handle, matrix, mode, *, tag="ttm"):
            ...

        @abc.abstractmethod
        def fro_norm_sq(self, handle, *, tag="norm"):
            ...
"""


class TestLedgerTags:
    def base_files(self):
        return (
            ctx("src/repro/backends/schedule.py", SCHEDULE_MODULE),
            ctx("src/repro/backends/base.py", TAG_BASE_MODULE),
        )

    def test_known_tags_clean(self):
        schedule, base = self.base_files()
        user = ctx("src/repro/session.py", """
            def run(ledger, backend, handle, m):
                ledger.add_comm(op="gather", tag="hooi:it0:ttm:n3",
                                group_size=4, elements=10, seconds=0.1)
                backend.fro_norm_sq(handle, tag="norm:input")
                backend.ttm(handle, m, 0, tag=f"svd:m{0}")
        """)
        assert findings(LedgerTagRule(), schedule, base, user) == []

    def test_unknown_literal_tag_flagged(self):
        schedule, base = self.base_files()
        user = ctx("src/repro/session.py", """
            def run(ledger):
                ledger.add_compute(op="ttm", tag="mystery:tag",
                                   flops=1.0, seconds=0.1)
        """)
        out = findings(LedgerTagRule(), schedule, base, user)
        assert len(out) == 1
        assert out[0].rule == "R005" and "mystery:tag" in out[0].message

    def test_unknown_fstring_prefix_flagged(self):
        schedule, base = self.base_files()
        user = ctx("src/repro/session.py", """
            def run(backend, handle, m, mode):
                backend.ttm(handle, m, mode, tag=f"bogus:ttm{mode}")
        """)
        out = findings(LedgerTagRule(), schedule, base, user)
        assert len(out) == 1 and "bogus" in out[0].message

    def test_fully_dynamic_tag_ignored(self):
        schedule, base = self.base_files()
        user = ctx("src/repro/session.py", """
            def run(backend, handle, m, tag):
                backend.ttm(handle, m, 0, tag=f"{tag}:gram")
        """)
        assert findings(LedgerTagRule(), schedule, base, user) == []

    def test_extra_tags_config_extends_registry(self):
        schedule, base = self.base_files()
        user = ctx("src/repro/session.py", """
            def run(ledger):
                ledger.add_compute(op="svd", tag="legacy:svd0",
                                   flops=1.0, seconds=0.1)
        """)
        config = LintConfig.from_mapping(
            {"rules": {"R005": {"extra-tags": ["legacy:*"]}}}
        )
        assert findings(
            LedgerTagRule(), schedule, base, user, config=config
        ) == []


# --------------------------------------------------------------------- #
# R006 exception-hygiene


class TestExceptionHygiene:
    def test_silent_broad_except_flagged(self):
        bad = ctx("pkg/mod.py", """
            def f():
                try:
                    return 1
                except Exception:
                    return None
        """)
        out = findings(ExceptionHygieneRule(), bad)
        assert len(out) == 1 and out[0].rule == "R006"

    def test_bare_except_always_flagged(self):
        bad = ctx("pkg/mod.py", """
            import logging
            def f():
                try:
                    return 1
                except:
                    logging.getLogger("repro").exception("boom")
        """)
        out = findings(ExceptionHygieneRule(), bad)
        assert len(out) == 1 and "bare" in out[0].message

    def test_logged_broad_except_clean(self):
        good = ctx("pkg/mod.py", """
            import logging
            logger = logging.getLogger("repro.pkg")
            def f():
                try:
                    return 1
                except Exception:
                    logger.exception("boom")
                    return None
        """)
        assert findings(ExceptionHygieneRule(), good) == []

    def test_reraising_broad_except_clean(self):
        good = ctx("pkg/mod.py", """
            def f():
                try:
                    return 1
                except BaseException:
                    raise
        """)
        assert findings(ExceptionHygieneRule(), good) == []

    def test_narrowed_except_out_of_scope(self):
        good = ctx("pkg/mod.py", """
            def f():
                try:
                    return 1
                except (OSError, ValueError):
                    return None
        """)
        assert findings(ExceptionHygieneRule(), good) == []


# --------------------------------------------------------------------- #
# pragmas / config / driver


class TestSuppression:
    def test_parse_pragmas(self):
        pragmas = parse_pragmas(
            "x = 1  # repro-lint: disable=R001,R006\n"
            "y = 2\n"
            "z = 3  # repro-lint: disable\n"
        )
        assert set(pragmas) == {1, 3}
        assert pragmas[1][0].rules == frozenset({"R001", "R006"})
        assert pragmas[3][0].rules == frozenset()

    def test_match_path_suffix(self):
        assert match_path("src/repro/backends/base.py", "backends/*.py")
        assert match_path("src/repro/backends/base.py", "*/backends/*.py")
        assert not match_path("src/repro/core/meta.py", "backends/*.py")

    def test_inline_pragma_moves_finding_to_suppressed(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "import numpy as np\n"
            "np.random.seed(0)  # repro-lint: disable=R001\n"
        )
        report = run_lint([str(target)], config=LintConfig())
        assert report.ok
        assert [f.rule for f in report.suppressed] == ["R001"]

    def test_per_file_config_ignore(self, tmp_path):
        target = tmp_path / "legacy.py"
        target.write_text("import numpy as np\nnp.random.seed(0)\n")
        config = LintConfig.from_mapping(
            {"per-file-ignores": {"legacy.py": ["R001"]}}
        )
        report = run_lint([str(target)], config=config)
        assert report.ok and len(report.suppressed) == 1

    def test_global_disable(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("import numpy as np\nnp.random.seed(0)\n")
        config = LintConfig.from_mapping({"disable": ["R001"]})
        report = run_lint([str(target)], config=config)
        assert report.ok and len(report.suppressed) == 1

    def test_malformed_config_raises(self):
        with pytest.raises(ValueError):
            LintConfig.from_mapping({"disable": "R001"})

    def test_exclude_skips_files(self, tmp_path):
        (tmp_path / "mod.py").write_text("import numpy as np\nnp.random.seed(0)\n")
        config = LintConfig.from_mapping({"exclude": ["mod.py"]})
        report = run_lint([str(tmp_path)], config=config)
        assert report.files == 0 and report.ok

    def test_parse_error_becomes_E000(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n")
        report = run_lint([str(target)], config=LintConfig())
        assert not report.ok
        assert [f.rule for f in report.findings] == ["E000"]

    def test_collect_files_walks_and_sorts(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "a.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        selected, excluded = collect_files([str(tmp_path)], LintConfig())
        assert [os.path.basename(p) for p in selected] == ["b.py", "a.py"]
        assert excluded == []


class TestReport:
    def test_json_round_trip(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("import numpy as np\nnp.random.seed(0)\n")
        report = run_lint([str(target)], config=LintConfig())
        data = json.loads(json.dumps(report.to_dict()))
        assert data["version"] == 1
        assert data["ok"] is False
        assert data["counts"] == {"R001": 1}
        back = LintReport.from_dict(data)
        assert back.findings == report.findings
        assert back.suppressed == report.suppressed
        assert back.files == report.files

    def test_finding_format(self):
        finding = Finding(
            path="a.py", line=3, rule="R001", message="boom"
        )
        assert finding.format() == "a.py:3: R001 [error] boom"

    def test_unknown_rule_id_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown rule id"):
            run_lint([str(tmp_path)], config=LintConfig(), rules=["R999"])


# --------------------------------------------------------------------- #
# CLI


class TestLintCli:
    def test_cli_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_findings_exit_one(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "import numpy as np\nnp.random.seed(0)\n"
        )
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out and "mod.py:2" in out

    def test_cli_json_schema(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "import numpy as np\nnp.random.seed(0)\n"
        )
        assert main(["lint", str(tmp_path), "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {
            "version", "files", "ok", "counts", "findings", "suppressed",
        }
        assert data["findings"][0]["rule"] == "R001"

    def test_cli_rule_filter(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "import numpy as np\nnp.random.seed(0)\n"
        )
        assert main(["lint", str(tmp_path), "--rule", "R006"]) == 0
        assert main(["lint", str(tmp_path), "--rule", "R001"]) == 1
        capsys.readouterr()

    def test_cli_unknown_rule_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path), "--rule", "R999"]) == 2
        assert "unknown rule id" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# the gate itself


class TestSelfRun:
    def test_repo_src_is_lint_clean(self):
        report = run_lint([os.path.join(REPO, "src")])
        assert report.ok, "\n".join(f.format() for f in report.findings)
        assert report.files > 50

    def test_regression_seed_reintroduction_fails(self, tmp_path):
        """The acceptance check: np.random.seed in src-like code must
        flip the gate to exit 1."""
        bad = tmp_path / "regress.py"
        bad.write_text("import numpy as np\nnp.random.seed(1234)\n")
        report = run_lint(
            [os.path.join(REPO, "src"), str(bad)],
            config=LintConfig.load(os.path.join(REPO, "pyproject.toml")),
        )
        assert not report.ok
        assert any(f.rule == "R001" for f in report.findings)

    def test_regression_removed_finalizer_fails(self, tmp_path):
        bad = tmp_path / "leak.py"
        bad.write_text(
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def alloc(n):\n"
            "    return SharedMemory(create=True, size=n)\n"
        )
        report = run_lint([str(bad)], config=LintConfig())
        assert [f.rule for f in report.findings] == ["R002"]

    def test_all_rules_have_unique_ids_and_docs(self):
        ids = [cls.id for cls in ALL_RULES]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
        for cls in ALL_RULES:
            assert cls.description and cls.name


# --------------------------------------------------------------------- #
# mypy (only when the checker is installed — CI's lint job installs it)


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None,
    reason="mypy is not installed (the CI lint job provides it)",
)
def test_mypy_strict_on_analysis_package():
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file",
         os.path.join(REPO, "pyproject.toml")],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert result.returncode == 0, result.stdout + result.stderr
