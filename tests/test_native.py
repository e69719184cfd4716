"""The compiled Gaussian core against the numpy core it must equal bit for
bit: the uniforms, the inverse CDF, the estimators on top of them, and the
build's own guarantees (its flags, its constants, its fallbacks)."""

import json
import multiprocessing
import os
import platform
import re
import shutil
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import insidermc
from insidermc import Trader, _native, special
from insidermc import _inverse_normal_coefficients as coefficients
from insidermc.sampling import (
    RngStream, Workspace, _uniforms_numpy, _weyl_base, _words, standard_normal_block,
    uniform_block,
)
from insidermc.special import _inverse_normal_cdf_array, _inverse_normal_cdf_numpy

HAVE_CC = shutil.which("cc") is not None
SRC = str(Path(__file__).resolve().parents[1] / "src")
ORACLE_U = [
    float(line.split()[1])
    for line in Path(__file__).with_name("inverse_normal_oracle.txt").read_text().splitlines()
    if not line.startswith("#")
]
SHOWCASE = insidermc.validate_params(1, 0, 0.5, 1, 1)


@pytest.fixture
def lib():
    """The loaded library: wherever a compiler is found, it must load."""
    if not HAVE_CC:
        pytest.skip("no C compiler")
    loaded = _native.kernels()
    assert loaded is not None
    return loaded


def _bits(x: np.ndarray) -> np.ndarray:
    return x.view(np.uint64)


def _same_normals(u: np.ndarray) -> bool:
    """The compiled inverse CDF of ``u`` is bitwise the numpy core's."""
    return np.array_equal(_bits(_inverse_normal_cdf_array(u.copy())),
                          _bits(_inverse_normal_cdf_numpy(u.copy())))


def test_every_oracle_row_gives_the_numpy_cores_bits(lib):
    u = np.array(ORACLE_U)
    assert u.size == 2320 and u.min() == 1e-300 and u.max() == 1.0 - 2.0**-53
    assert _same_normals(u)


def test_stream_uniforms_and_normals_give_the_numpy_cores_bits(lib):
    n = 1 << 22
    u = uniform_block(RngStream(20261022), 0, n)
    assert np.array_equal(_bits(u), _bits(_uniforms_numpy(20261022, 0, n, Workspace(n))))
    assert u.min() < 1e-6 and u.max() > 1 - 1e-6  # both far tails are reached
    assert _same_normals(u)


def test_the_edges_and_their_neighbours_give_the_numpy_cores_bits(lib):
    edges = np.array([coefficients.U_LO, coefficients.U_HI, 0.5])
    u = np.concatenate([
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
        [2.0**-54, 1.0 - 2.0**-53, 1e-300, 1e-310, 5e-324],
    ])
    assert _same_normals(u)
    assert np.all(np.isfinite(_inverse_normal_cdf_array(u.copy())))


@pytest.mark.parametrize("count", [0, 1, 7, 1023, (1 << 16) + 3])
def test_every_count_gives_the_numpy_cores_bits(lib, count):
    u = uniform_block(RngStream(11), 5, count)
    assert u.size == count
    assert np.array_equal(_bits(u), _bits(_uniforms_numpy(11, 5, count, Workspace(count))))
    assert _same_normals(u)


@pytest.mark.parametrize("seed, start", [
    (0, 0), (1, 0), (42, 10**9),
    # The first word's top 53 bits are all ones: the clamped top cell.
    (0xF56E309E96A04737, 0),
    # seed + (start + 1) GOLDEN passes 2^64 within the block, and at its start.
    (2**64 - 1, 0), (2**64 - 0x9E3779B97F4A7C15, 0),
    # The last counters of the stream.
    (7, 2**63 - 4096), (2**64 - 1, 2**63 - 1),
], ids=lambda v: f"{v:#x}")
def test_uniforms_are_the_words_through_the_numpy_map(lib, seed, start):
    count = min(4096, 2**63 - start)
    out = Workspace(count)
    w = _words(seed, start, count, Workspace(count)).copy()
    u = uniform_block(RngStream(seed), start, count, out)
    assert np.shares_memory(u, out.words)
    reference = np.minimum(((w >> np.uint64(11)).astype(np.int64) + 0.5) * 2.0**-53,
                           1.0 - 2.0**-53)
    assert np.array_equal(_bits(u), _bits(reference))
    assert np.array_equal(_bits(u), _bits(_uniforms_numpy(seed, start, count, Workspace(count))))


def _cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return set(re.search(r"^flags\s*:(.*)$", text, re.M).group(1).split())


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler")
@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="x86-64 levels only")
def test_the_baseline_and_the_avx2_builds_give_the_same_bits(tmp_path):
    # Without the clones each build runs at the level it names: SSE2 only,
    # and AVX2 with FMA, whose multiply-adds -ffp-contract=off keeps apart.
    if not {"avx2", "fma", "bmi2"} <= _cpu_flags():
        pytest.skip("the CPU cannot run x86-64-v3 code")
    u = np.concatenate([np.array(ORACLE_U), _native.check_points(),
                        uniform_block(RngStream(3), 0, 1 << 16)])
    reference = _bits(_inverse_normal_cdf_numpy(u.copy()))
    words = _uniforms_numpy(3, 0, 1 << 16, Workspace(1 << 16))
    for march in ("x86-64", "x86-64-v3"):
        path = tmp_path / f"{march}.so"
        assert _native.build(path, ("-DINSIDERMC_NO_CLONES", f"-march={march}"))
        build = _native.load(path)
        x = u.copy()
        build.inverse_cdf(x.ctypes.data, x.size)
        assert np.array_equal(_bits(x), reference), march
        out = np.empty(1 << 16)
        build.uniforms(_weyl_base(3, 0), out.ctypes.data, out.size)
        assert np.array_equal(_bits(out), _bits(words)), march


# The uniform fronts at a finite level, the all-stock leg, Euler and the
# factorized bet beside its GBM leg.
ESTIMATES = {
    trader.value: (lambda trader=trader: insidermc.estimate_mean(trader, SHOWCASE, 70_001, 5, 1))
    for trader in Trader
}
ESTIMATES["euler"] = lambda: insidermc.estimate_euler_mean(SHOWCASE, 16, 5000, 5, 1)
ESTIMATES["factorized"] = lambda: insidermc.skorokhod_factorized_estimate(
    SHOWCASE, RngStream(5), 70_001, 1)


@pytest.mark.parametrize("name", ESTIMATES)
def test_estimates_are_the_same_without_the_compiled_core(lib, monkeypatch, name):
    compiled = ESTIMATES[name]()
    monkeypatch.setattr(_native, "kernels", lambda: None)
    calls = []
    numpy_core = special._inverse_normal_cdf_numpy
    monkeypatch.setattr(special, "_inverse_normal_cdf_numpy",
                        lambda x: calls.append(x.size) or numpy_core(x))
    assert ESTIMATES[name]() == compiled
    assert calls  # the numpy core ran


def _called_names(c_source: str) -> set[str]:
    """Every identifier followed by an opening parenthesis, comments removed."""
    code = re.sub(r"/\*.*?\*/", "", c_source, flags=re.S)
    return set(re.findall(r"\b([A-Za-z_]\w*)\s*\(", code))


def test_the_source_calls_no_transcendental_and_builds_without_fast_math():
    # Modelled on test_special_calls_no_numpy_transcendental: the compiled
    # core uses +, -, *, /, sqrt and bit operations alone, which IEEE 754
    # rounds correctly on every CPU, and no compiler flag or pragma may
    # fuse, reorder or approximate them.
    source = _native.render()
    called = _called_names(source)
    assert [n for n in called if re.fullmatch(r"(__builtin_)?(exp|log|pow)\w*", n)] == []
    assert "math.h" not in source and "#pragma" not in source
    assert {"__builtin_sqrt", "ratio", "minus_log"} <= called  # the check reads the kernels
    assert "-ffp-contract=off" in _native.FLAGS
    assert [f for f in _native.FLAGS if f in ("-ffast-math", "-Ofast", "-march=native")] == []


def test_the_rendered_constants_are_their_python_homes_bit_for_bit():
    rendered = {}
    for kind, name, literal in re.findall(
            r"^static const (double|uint64_t) (\w+)(?:\[\d+\])? = (.*);$",
            _native.render(), re.M):
        parse = float.fromhex if kind == "double" else (
            lambda v: int(re.fullmatch(r"UINT64_C\((0x[0-9a-f]+)\)", v).group(1), 16))
        rendered[name] = [parse(v) for v in literal.strip("{}").split(", ")]
    sampling = insidermc.sampling
    homes = {
        **{name: value for name, value in vars(coefficients).items() if name.isupper()},
        "ATANH_SERIES": special._ATANH_SERIES, "TO_UNIT": sampling._TO_UNIT,
        "GOLDEN": sampling._GOLDEN, "MIX1": sampling._MIX1, "MIX2": sampling._MIX2,
    }
    assert rendered.keys() == homes.keys() and "CENTRAL_P" in rendered

    def bits(values):
        return [v if isinstance(v, int) else struct.pack("<d", v) for v in values]

    for name, value in homes.items():
        expected = list(value) if isinstance(value, tuple) else [value]
        assert bits(rendered[name]) == bits(expected), name


def test_the_library_is_content_addressed_in_pycache(lib):
    path = Path(lib._name)
    assert path == _native.library_path()
    assert path.parent == Path(_native.__file__).with_name("__pycache__")
    assert re.fullmatch(r"_native-[0-9a-f]{8}\.so", path.name)
    assert [p.name for p in path.parent.glob(f"{path.name}.*.tmp")] == []


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler")
def test_concurrent_builds_replace_the_file_atomically(tmp_path):
    target = tmp_path / "lib.so"
    results = []
    threads = [threading.Thread(target=lambda: results.append(_native.build(target)))
               for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [True] * 3
    assert [p.name for p in tmp_path.iterdir()] == ["lib.so"]
    assert _native._matches_numpy(_native.load(target))


def _fresh_kernels(monkeypatch, path: Path):
    """The loader's result for a library at ``path``, uncached."""
    monkeypatch.setattr(_native, "library_path", lambda: path)
    return _native.kernels.__wrapped__()


def test_a_failed_build_falls_back_to_the_numpy_core(monkeypatch, tmp_path):
    monkeypatch.setattr(_native, "render", lambda: "this is not C\n")
    assert _fresh_kernels(monkeypatch, tmp_path / "lib.so") is None
    assert list(tmp_path.iterdir()) == []  # the temporary file is gone


def test_an_unwritable_cache_falls_back_to_the_numpy_core(monkeypatch, tmp_path):
    (tmp_path / "file").write_text("")
    assert _fresh_kernels(monkeypatch, tmp_path / "file" / "lib.so") is None


def test_a_missing_compiler_falls_back_to_the_numpy_core(monkeypatch, tmp_path):
    monkeypatch.setenv("PATH", str(tmp_path))
    assert _fresh_kernels(monkeypatch, tmp_path / "lib.so") is None


def test_an_unloadable_library_falls_back_to_the_numpy_core(monkeypatch, tmp_path):
    (tmp_path / "lib.so").write_bytes(b"not a shared object")
    assert _fresh_kernels(monkeypatch, tmp_path / "lib.so") is None


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler")
def test_a_library_that_fails_the_self_check_is_not_kept(monkeypatch, tmp_path):
    # One central coefficient a millionth off: the build loads, and its
    # normals miss the numpy core's bits.
    constants = _native._constants()
    wrong = dict(constants, CENTRAL_P=(constants["CENTRAL_P"][0] * (1 + 1e-6),
                                       *constants["CENTRAL_P"][1:]))
    monkeypatch.setattr(_native, "_constants", lambda: wrong)
    path = tmp_path / "lib.so"
    assert _fresh_kernels(monkeypatch, path) is None
    assert path.exists() and not _native._matches_numpy(_native.load(path))


def test_a_32_bit_interpreter_runs_the_numpy_core(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "maxsize", 2**31 - 1)
    assert _fresh_kernels(monkeypatch, tmp_path / "lib.so") is None
    assert list(tmp_path.iterdir()) == []  # nothing was built


def test_a_strided_or_read_only_vector_takes_the_numpy_core(lib):
    u = uniform_block(RngStream(9), 0, 5000).copy()
    x = u.copy()[::2]
    assert not x.flags.c_contiguous
    assert _inverse_normal_cdf_array(x) is x
    assert np.array_equal(_bits(x), _bits(standard_normal_block(RngStream(9), 0, 5000)[::2]))
    u.flags.writeable = False
    with pytest.raises(ValueError, match="read-only"):
        _inverse_normal_cdf_array(u)


# A child interpreter whose workers must take the library from their parent
# (fork) or from the cache (spawn): its own loader's file lookup is broken
# once the library is loaded, and no compiler is on the PATH.
POOL_CHILD = """
import json, multiprocessing, os, sys, threading
from insidermc import Trader, _native, estimate_mean, montecarlo, validate_params
os.cpu_count = lambda: 2
loaded = _native.kernels() is not None
_native.library_path = None
if sys.argv[1] == "spawn":
    threading.Thread(target=threading.Event().wait, daemon=True).start()
args = (Trader.FORWARD_INSIDER, validate_params(1, 0, 0.5, 1, 1), 1 << 18, 3)
same = estimate_mean(*args, 2) == estimate_mean(*args, 1)
probe = "__import__('insidermc._native').__dict__['_native'].kernels() is not None"
in_workers = list(montecarlo._pool(2).map(eval, [probe, probe]))
kinds = sorted({type(c).__name__ for c in multiprocessing.active_children()})
print(json.dumps({"loaded": [loaded, *in_workers], "same": same, "kinds": kinds}))
"""


@pytest.mark.parametrize("start", ["fork", "spawn"])
def test_pool_workers_run_the_compiled_core(lib, start):
    env = {
        **os.environ, "PATH": "",
        "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
    }
    proc = subprocess.run([sys.executable, "-c", POOL_CHILD, start], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {
        "loaded": [True] * 3, "same": True,
        "kinds": [{"fork": "ForkProcess", "spawn": "SpawnProcess"}[start]],
    }


# A child interpreter whose first draw is pooled.  Its parent loads the
# compiled core before it forks the pool, so the library is looked up once,
# by the parent, and never by a worker: on a cold cache each worker would
# otherwise build it too.
FIRST_DRAW_POOLED = """
import os, sys
from insidermc import Trader, _native, estimate_mean, validate_params
os.cpu_count = lambda: 2
lookup = _native.library_path
def logged():
    print(os.getpid(), file=sys.stderr, flush=True)
    return lookup()
_native.library_path = logged
estimate_mean(Trader.FORWARD_INSIDER, validate_params(1, 0, 0.5, 1, 1), 1 << 18, 3, 2)
print(os.getpid())
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_the_parent_loads_the_compiled_core_for_its_forked_workers(lib):
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
    }
    proc = subprocess.run([sys.executable, "-c", FIRST_DRAW_POOLED], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == proc.stdout.split()
