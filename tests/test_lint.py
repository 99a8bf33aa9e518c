"""repro.lint: every RL rule with trigger *and* near-miss fixtures,
fingerprints/baseline, pragmas, the CLI, and the self-check that keeps
``src/repro`` clean."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    DEFAULT_CONFIG,
    config_with,
    fingerprint,
    lint_paths,
    lint_source,
    load_baseline,
    write_baseline,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def codes(findings):
    return [f.code for f in findings]


def lint(source, module="repro.service.fixture", **overrides):
    config = config_with(DEFAULT_CONFIG, **overrides) if overrides else DEFAULT_CONFIG
    return lint_source(textwrap.dedent(source), module=module, config=config)


# --------------------------------------------------------------------- #
# RL1xx determinism                                                      #
# --------------------------------------------------------------------- #


class TestDeterminism:
    def test_rl101_unseeded_default_rng(self):
        found = lint("import numpy as np\nrng = np.random.default_rng()\n")
        assert codes(found) == ["RL101"]

    def test_rl101_seed_none_kwarg(self):
        found = lint("import numpy as np\nrng = np.random.default_rng(seed=None)\n")
        assert codes(found) == ["RL101"]

    def test_rl101_near_miss_seeded(self):
        found = lint("import numpy as np\nrng = np.random.default_rng(1234)\n")
        assert found == []

    def test_rl101_near_miss_seed_expression(self):
        found = lint(
            "import numpy as np\n"
            "def make(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert found == []

    def test_rl101_near_miss_outside_deterministic_paths(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        assert lint(source, module="repro.obs.fixture") == []

    def test_rl101_utils_is_exempt(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        assert lint(source, module="repro.utils") == []

    def test_rl102_stdlib_random_import(self):
        assert codes(lint("import random\n")) == ["RL102"]
        assert codes(lint("from random import shuffle\n")) == ["RL102"]

    def test_rl102_near_miss_np_random(self):
        assert lint("from numpy import random\n") == []
        assert lint("from numpy.random import default_rng\n") == []

    def test_rl103_wall_clock(self):
        found = lint("import time\nnow = time.time()\n")
        assert codes(found) == ["RL103"]
        found = lint(
            "from datetime import datetime\nstamp = datetime.now()\n"
        )
        assert codes(found) == ["RL103"]

    def test_rl103_near_miss_monotonic_clocks(self):
        found = lint(
            "import time\na = time.perf_counter()\nb = time.monotonic()\n"
        )
        assert found == []

    def test_rl104_global_seeding_fires_everywhere(self):
        source = "import random\nrandom.seed(7)\n"
        found = lint(source, module="repro.obs.fixture")  # not deterministic
        assert codes(found) == ["RL104"]

    def test_rl104_near_miss_generator_seeding(self):
        found = lint(
            "import numpy as np\nrng = np.random.default_rng(7)\n",
            module="repro.obs.fixture",
        )
        assert found == []


# --------------------------------------------------------------------- #
# RL2xx asyncio discipline                                               #
# --------------------------------------------------------------------- #


class TestAsyncio:
    def test_rl201_time_sleep_in_async(self):
        found = lint(
            "import time\nasync def pump():\n    time.sleep(0.1)\n",
            module="anything",  # RL2xx applies everywhere
        )
        assert codes(found) == ["RL201"]

    def test_rl201_near_miss_sync_def(self):
        found = lint("import time\ndef pump():\n    time.sleep(0.1)\n")
        assert found == []

    def test_rl201_near_miss_asyncio_sleep(self):
        found = lint(
            "import asyncio\nasync def pump():\n    await asyncio.sleep(0.1)\n"
        )
        assert found == []

    def test_rl201_near_miss_nested_sync_callback(self):
        # a def nested in an async def runs wherever it is called —
        # usually a pool thread, where blocking is the point
        found = lint(
            "import time\n"
            "async def pump(loop):\n"
            "    def work():\n"
            "        time.sleep(0.1)\n"
            "    await loop.run_in_executor(None, work)\n"
        )
        assert found == []

    def test_rl202_sync_socket_op(self):
        found = lint(
            "async def serve(sock):\n    data = sock.recv(65536)\n"
        )
        assert codes(found) == ["RL202"]

    def test_rl202_near_miss_awaited_stream(self):
        found = lint(
            "async def serve(reader):\n    data = await reader.recv(65536)\n"
        )
        assert found == []

    def test_rl203_blocking_acquire(self):
        found = lint("async def grab(lock):\n    lock.acquire()\n")
        assert codes(found) == ["RL203"]

    def test_rl203_near_miss_awaited_acquire(self):
        found = lint("async def grab(lock):\n    await lock.acquire()\n")
        assert found == []

    def test_rl204_tracer_span(self):
        found = lint(
            "async def handle(tracer):\n"
            "    with tracer.span('dispatch'):\n"
            "        pass\n"
        )
        assert codes(found) == ["RL204"]

    def test_rl204_near_miss_record(self):
        found = lint(
            "async def handle(tracer, ctx):\n"
            "    tracer.record(ctx, 'dispatch', 0.0, 1.0)\n"
        )
        assert found == []


# --------------------------------------------------------------------- #
# RL3xx lock discipline                                                  #
# --------------------------------------------------------------------- #

_GUARDED_CLASS = """\
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self.items = []  # guarded-by: _lock

    def good(self, x):
        with self._lock:
            self.items.append(x)

    def {bad}
"""


class TestLocks:
    def test_rl301_mutation_outside_lock(self):
        source = _GUARDED_CLASS.format(bad="bad(self, x):\n        self.items.append(x)")
        found = lint(source)
        assert codes(found) == ["RL301"]
        assert "items" in found[0].message

    def test_rl301_assignment_outside_lock(self):
        source = _GUARDED_CLASS.format(bad="bad(self):\n        self.items = []")
        assert codes(lint(source)) == ["RL301"]

    def test_rl301_subscript_outside_lock(self):
        source = _GUARDED_CLASS.format(bad="bad(self):\n        self.items[0] = 1")
        assert codes(lint(source)) == ["RL301"]

    def test_rl301_near_miss_inside_with(self):
        source = _GUARDED_CLASS.format(
            bad="also_good(self, x):\n        with self._lock:\n            self.items.extend(x)"
        )
        assert lint(source) == []

    def test_rl301_near_miss_reads_unchecked(self):
        source = _GUARDED_CLASS.format(bad="peek(self):\n        return len(self.items)")
        assert lint(source) == []

    def test_rl301_caller_holds_annotation(self):
        source = _GUARDED_CLASS.format(
            bad="_locked_clear(self):  # guarded-by: _lock\n        self.items.clear()"
        )
        assert lint(source) == []

    def test_rl301_condition_alias(self):
        found = lint(
            """\
            import threading

            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._idle = threading.Condition(self._lock)
                    self.depth = 0  # guarded-by: _lock, _idle

                def via_condition(self):
                    with self._idle:
                        self.depth += 1
            """
        )
        assert found == []

    def test_rl301_closure_does_not_inherit_lock(self):
        # the closure may run later on another thread; holding the lock
        # at definition time vouches for nothing
        found = lint(
            """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []  # guarded-by: _lock

                def sneaky(self, pool):
                    with self._lock:
                        pool.submit(lambda: self.items.append(1))
            """
        )
        assert codes(found) == ["RL301"]

    def test_rl302_bare_except(self):
        found = lint("try:\n    pass\nexcept:\n    raise ValueError()\n")
        assert codes(found) == ["RL302"]

    def test_rl302_near_miss_typed(self):
        assert lint("try:\n    pass\nexcept OSError:\n    pass\n") == []

    def test_rl303_swallowed_exception_in_dispatch(self):
        source = "try:\n    pass\nexcept Exception:\n    pass\n"
        assert codes(lint(source, module="repro.gateway.fixture")) == ["RL303"]

    def test_rl303_near_miss_handled(self):
        source = "try:\n    pass\nexcept Exception as exc:\n    print(exc)\n"
        assert lint(source, module="repro.gateway.fixture") == []

    def test_rl303_near_miss_outside_dispatch(self):
        source = "try:\n    pass\nexcept Exception:\n    pass\n"
        assert lint(source, module="repro.hst.fixture") == []


# --------------------------------------------------------------------- #
# RL4xx wire parity                                                      #
# --------------------------------------------------------------------- #

_WIRE_CLASS = """\
class Msg:
    def _body(self):
        return {{"a": self.a, "b": self.b}}

    @classmethod
    def _from_body(cls, body):
        return cls({consume})
"""


class TestWire:
    def test_rl401_field_never_read(self):
        found = lint(_WIRE_CLASS.format(consume='a=body["a"]'))
        assert codes(found) == ["RL401"]
        assert "b" in found[0].message

    def test_rl401_field_never_written(self):
        found = lint(
            _WIRE_CLASS.format(consume='a=body["a"], b=body["b"], c=body["c"]')
        )
        assert codes(found) == ["RL401"]
        assert "c" in found[0].message

    def test_rl401_near_miss_parity(self):
        found = lint(_WIRE_CLASS.format(consume='a=body["a"], b=body.get("b")'))
        assert found == []

    def test_rl401_near_miss_unanalyzable_producer(self):
        found = lint(
            """\
            class Msg:
                def _body(self):
                    return self.report.to_dict()

                @classmethod
                def _from_body(cls, body):
                    return cls(a=body["a"])
            """
        )
        assert found == []

    def test_rl401_near_miss_unanalyzable_consumer(self):
        found = lint(
            """\
            class Msg:
                def _body(self):
                    return {"a": 1}

                @classmethod
                def _from_body(cls, body):
                    return cls(**body)
            """
        )
        assert found == []

    def test_rl402_half_pair(self):
        found = lint("class Msg:\n    def _body(self):\n        return {}\n")
        assert codes(found) == ["RL402"]

    def test_rl402_near_miss_full_pair(self):
        found = lint(
            "class Msg:\n"
            "    def _body(self):\n"
            "        return {}\n"
            "    @classmethod\n"
            "    def _from_body(cls, body):\n"
            "        return cls()\n"
        )
        assert found == []

    def test_rl403_feature_constant_outside_registry(self):
        found = lint('EXTRA_FEATURE = "extra"\n', module="repro.mesh.fixture")
        assert codes(found) == ["RL403"]

    def test_rl403_near_miss_in_registry(self):
        found = lint('EXTRA_FEATURE = "extra"\n', module="repro.gateway.protocol")
        assert found == []

    def test_rl403_near_miss_imported_constant(self):
        found = lint(
            "from repro.gateway.protocol import TRACE_FEATURE\n",
            module="repro.mesh.fixture",
        )
        assert found == []

    def test_rl403_codec_constant_outside_registry(self):
        found = lint('BIN2_CODEC = "bin2"\n', module="repro.gateway.fixture")
        assert codes(found) == ["RL403"]

    def test_rl403_frame_tag_outside_registry(self):
        # binary frame tags are ints, not strings — still registry-only
        found = lint("SHINY_TAG = 0x19\n", module="repro.gateway.fixture")
        assert codes(found) == ["RL403"]

    def test_rl403_bin1_prefixed_constant_outside_registry(self):
        found = lint("BIN1_MAGIC = 0xB1\n", module="repro.mesh.fixture")
        assert codes(found) == ["RL403"]

    def test_rl403_near_miss_bool_is_not_a_wire_constant(self):
        found = lint("USE_TAG = True\n", module="repro.mesh.fixture")
        assert found == []

    def test_rl403_near_miss_struct_layout_is_not_a_tag(self):
        # a private struct layout next to imported tags is fine
        found = lint(
            "import struct\n_STREAM_ROW = struct.Struct('>Bqqddd')\n",
            module="repro.gateway.fixture",
        )
        assert found == []

    def test_rl404_snapshot_version_outside_registry(self):
        found = lint("SNAPSHOT_VERSION = 4\n", module="repro.mesh.fixture")
        assert codes(found) == ["RL404"]

    def test_rl404_snapshot_format_outside_registry(self):
        found = lint(
            'SNAPSHOT_FORMAT = "my-snapshot"\n', module="repro.service.fixture"
        )
        assert codes(found) == ["RL404"]

    def test_rl404_supported_versions_tuple_outside_registry(self):
        found = lint(
            "SUPPORTED_SNAPSHOT_VERSIONS = (1, 2, 3)\n",
            module="repro.mesh.fixture",
        )
        assert codes(found) == ["RL404"]

    def test_rl404_near_miss_in_registry(self):
        found = lint(
            "SNAPSHOT_VERSION = 3\nSUPPORTED_SNAPSHOT_VERSIONS = (1, 2, 3)\n",
            module="repro.cluster.snapshot",
        )
        assert found == []

    def test_rl404_near_miss_imported_constant(self):
        found = lint(
            "from repro.cluster.snapshot import SNAPSHOT_VERSION\n",
            module="repro.mesh.fixture",
        )
        assert found == []

    def test_rl404_near_miss_computed_value_is_not_a_constant(self):
        # deriving a local view of the registry's tuple is fine; only a
        # second *literal* declaration splits the format's brain
        found = lint(
            "from repro.cluster.snapshot import SUPPORTED_SNAPSHOT_VERSIONS\n"
            "SNAPSHOT_MAX = max(SUPPORTED_SNAPSHOT_VERSIONS)\n",
            module="repro.mesh.fixture",
        )
        assert found == []


# --------------------------------------------------------------------- #
# pragmas, fingerprints, baseline                                        #
# --------------------------------------------------------------------- #


class TestSuppression:
    def test_pragma_waives_named_code(self):
        found = lint(
            "import time\nnow = time.time()  # lint: ok RL103 span timestamp\n"
        )
        assert found == []

    def test_pragma_only_waives_named_code(self):
        found = lint(
            "import time\nnow = time.time()  # lint: ok RL101 wrong code\n"
        )
        assert codes(found) == ["RL103"]

    def test_fingerprint_ignores_line_number(self):
        src_a = "import time\nnow = time.time()\n"
        src_b = "import time\n\n\n\nnow = time.time()\n"
        fa = lint(src_a)[0]
        fb = lint(src_b)[0]
        assert fa.line != fb.line
        assert fa.fingerprint == fb.fingerprint

    def test_fingerprint_distinguishes_duplicates(self):
        found = lint("import time\nnow = time.time()\nlater = time.time()\n")
        assert len(found) == 2
        assert found[0].fingerprint != found[1].fingerprint

    def test_baseline_roundtrip(self, tmp_path):
        found = lint("import time\nnow = time.time()\n")
        path = tmp_path / "baseline.json"
        write_baseline(path, found)
        loaded = load_baseline(path)
        assert set(loaded) == {f.fingerprint for f in found}
        # hand-written bare-string lists load too
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps([found[0].fingerprint]))
        assert set(load_baseline(bare)) == {found[0].fingerprint}

    def test_fingerprint_is_stable(self):
        # pinned: baselines recorded by older versions must keep matching
        assert fingerprint("RL103", "a.py", "t = time.time()", 0) == fingerprint(
            "RL103", "a.py", "t   =  time.time()", 0
        )


# --------------------------------------------------------------------- #
# engine behavior                                                        #
# --------------------------------------------------------------------- #


class TestEngine:
    def test_syntax_error_becomes_rl000(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        findings, n_files = lint_paths([bad])
        assert n_files == 1
        assert codes(findings) == ["RL000"]

    def test_permissive_widens_scoping(self):
        source = "import time\nnow = time.time()\n"
        assert lint(source, module="examples_thing") == []
        assert codes(lint(source, module="examples_thing", permissive=True)) == [
            "RL103"
        ]

    def test_unknown_config_field_rejected(self):
        with pytest.raises(TypeError):
            config_with(DEFAULT_CONFIG, not_a_field=True)

    def test_findings_sorted_and_complete(self):
        found = lint(
            "import random\nimport time\nnow = time.time()\n"
            "rng = random.seed(1)\n"
        )
        assert codes(found) == ["RL102", "RL103", "RL104"]


# --------------------------------------------------------------------- #
# the CLI                                                                #
# --------------------------------------------------------------------- #


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )


class TestCli:
    @pytest.fixture()
    def dirty_tree(self, tmp_path):
        pkg = tmp_path / "repro" / "service"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text("import time\nnow = time.time()\n")
        return tmp_path

    def test_exit_nonzero_on_findings(self, dirty_tree):
        proc = run_cli(str(dirty_tree))
        assert proc.returncode == 1
        assert "RL103" in proc.stdout

    def test_json_format(self, dirty_tree):
        proc = run_cli(str(dirty_tree), "--format", "json")
        report = json.loads(proc.stdout)
        assert report["files"] == 1
        assert [f["code"] for f in report["findings"]] == ["RL103"]
        assert report["fresh"] == [report["findings"][0]["fingerprint"]]

    def test_baseline_workflow(self, dirty_tree, tmp_path):
        base = tmp_path / "lint-baseline.json"
        wrote = run_cli(str(dirty_tree), "--write-baseline", str(base))
        assert wrote.returncode == 0
        proc = run_cli(str(dirty_tree), "--baseline", str(base))
        assert proc.returncode == 0, proc.stdout
        assert "baselined" in proc.stdout
        # a *new* finding still fails the baselined run
        extra = dirty_tree / "repro" / "service" / "extra.py"
        extra.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        proc = run_cli(str(dirty_tree), "--baseline", str(base))
        assert proc.returncode == 1

    def test_permissive_reports_but_exits_zero(self, dirty_tree):
        proc = run_cli(str(dirty_tree), "--permissive")
        assert proc.returncode == 0
        assert "RL103" in proc.stdout

    def test_missing_path_is_usage_error(self, tmp_path):
        proc = run_cli(str(tmp_path / "nope.txt"))
        assert proc.returncode == 2

    def test_src_repro_is_clean(self):
        """The acceptance gate: the shipped tree lints clean, no baseline."""
        repo = SRC.parent
        proc = run_cli("src/repro", cwd=str(repo))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_introduced_violation_fails_src_tree(self, tmp_path):
        """Acceptance: planting any RL violation flips the run non-zero."""
        import shutil

        tree = tmp_path / "repro"
        shutil.copytree(SRC / "repro", tree)
        victim = tree / "service" / "planted.py"
        victim.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        proc = run_cli(str(tree))
        assert proc.returncode == 1
        assert "RL101" in proc.stdout
