"""The compiled Gaussian core: ``_native.c``'s two kernels, built and loaded
at the first kernel call.

``uniforms(c, out, n)`` writes the uniforms of the Weyl sequence
c + k GOLDEN, k = 0..n-1, and ``inverse_cdf(x, n)`` turns a vector of
uniforms into normals in place.  Each performs the numpy core's IEEE
operations (``sampling._uniforms_numpy``, ``special._inverse_normal_cdf_numpy``)
in the same order, so its results are bitwise that core's; the kernels
only spare the hundred numpy passes a block takes there.

:func:`kernels` compiles the source with ``cc`` into a file of
``__pycache__`` beside this module, named after a digest of the source and
the flags, loads it with ``ctypes`` and keeps it only if it matches the
numpy core bit for bit on fixed points.  The constants are rendered from
their Python homes as hex-float literals, so they have one home.  Nothing
happens at import: ``import insidermc`` loads neither this module nor
``ctypes`` nor ``subprocess``.  Where the build, the load or the check
fails, or the interpreter is not 64-bit, :func:`kernels` returns None and
the numpy core runs, with the same bits.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path

SOURCE = Path(__file__).with_name("_native.c")
# No fused multiply-add and no fast math, so every operation rounds as the
# numpy core's does; without errno, sqrt is the instruction alone, with no
# libm call.  target_clones in the source picks the vector width.
FLAGS = ("-O3", "-ffp-contract=off", "-fno-fast-math", "-fno-math-errno", "-shared", "-fPIC")
# A compile takes under a second; a stuck one falls back to the numpy core.
_COMPILE_TIMEOUT_S = 60


def _constants() -> dict:
    """Every constant of the C source, from its Python home."""
    from . import _inverse_normal_coefficients as coefficients
    from . import sampling, special

    return {
        **{name: value for name, value in vars(coefficients).items() if name.isupper()},
        "ATANH_SERIES": special._ATANH_SERIES,
        "TO_UNIT": sampling._TO_UNIT,
        "GOLDEN": sampling._GOLDEN,
        "MIX1": sampling._MIX1,
        "MIX2": sampling._MIX2,
    }


def _literal(value) -> str:
    if isinstance(value, int):
        return f"UINT64_C({value:#x})"
    return value.hex()


def render() -> str:
    """The source the compiler reads: the constants, then ``_native.c``."""
    lines = ["#include <stdint.h>"]
    for name, value in _constants().items():
        if isinstance(value, tuple):
            items = ", ".join(_literal(v) for v in value)
            lines.append(f"static const double {name}[{len(value)}] = {{{items}}};")
        else:
            kind = "uint64_t" if isinstance(value, int) else "double"
            lines.append(f"static const {kind} {name} = {_literal(value)};")
    return "\n".join(lines) + "\n" + SOURCE.read_text(encoding="utf-8")


def build(target: Path, extra_flags: tuple = ()) -> bool:
    """Compile :func:`render`'s source into ``target``, atomically: the
    library is written to a temporary file beside it and moved into place,
    so concurrent builds never load a partial file.  True on success."""
    import shutil
    import subprocess
    import tempfile

    cc = shutil.which("cc")
    if cc is None:
        return False
    fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *FLAGS, *extra_flags, "-o", tmp, "-x", "c", "-"],
            input=render(), capture_output=True, text=True, timeout=_COMPILE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            return False
        os.replace(tmp, target)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load(path: Path):
    """The library at ``path`` with the kernels' signatures declared."""
    import ctypes

    lib = ctypes.CDLL(str(path))
    lib.uniforms.argtypes = (ctypes.c_uint64, ctypes.c_void_p, ctypes.c_size_t)
    lib.uniforms.restype = None
    lib.inverse_cdf.argtypes = (ctypes.c_void_p, ctypes.c_size_t)
    lib.inverse_cdf.restype = None
    return lib


def check_points():
    """Fixed uniforms for the self-check: every piece of the inverse CDF,
    its edges and their neighbours, and the ends of the stream."""
    import numpy as np

    from ._inverse_normal_coefficients import U_HI, U_LO
    from .sampling import Workspace, _uniforms_numpy

    edges = np.array([U_LO, U_HI, 0.5])
    return np.concatenate([
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
        [2.0**-54, 1.0 - 2.0**-53, 1e-300, 1e-310, 5e-324],
        10.0 ** -np.arange(1.0, 300.0), 1.0 - 10.0 ** -np.arange(1.0, 16.0),
        _uniforms_numpy(1, 0, 4096, Workspace(4096)),
    ])


def _matches_numpy(lib) -> bool:
    """Whether both kernels give the numpy core's bits on fixed points."""
    import numpy as np

    from .sampling import Workspace, _uniforms_numpy, _weyl_base
    from .special import _inverse_normal_cdf_numpy

    u = check_points()
    x = u.copy()
    lib.inverse_cdf(x.ctypes.data, x.size)
    if not np.array_equal(x.view(np.uint64), _inverse_normal_cdf_numpy(u).view(np.uint64)):
        return False
    # A plain start, a Weyl add that wraps, counters next to 2^63 - 1, and
    # a first word whose top 53 bits are all ones: the clamped top cell.
    for seed, start in ((0, 0), (2**64 - 1, 5), (12345, 2**63 - 1000), (0xF56E309E96A04737, 0)):
        out = np.empty(1000)
        lib.uniforms(_weyl_base(seed, start), out.ctypes.data, out.size)
        reference = _uniforms_numpy(seed, start, out.size, Workspace(out.size))
        if not np.array_equal(out.view(np.uint64), reference.view(np.uint64)):
            return False
    return True


def library_path() -> Path:
    """The content-addressed library file in ``__pycache__``.  The digest
    is a CRC-32: hashlib would load OpenSSL, 3.5 MB of resident memory,
    and a library from another source would fail the self-check anyway."""
    import platform
    import zlib

    key = "\0".join([render(), *FLAGS, sys.platform, platform.machine()])
    return SOURCE.with_name("__pycache__") / f"_native-{zlib.crc32(key.encode()):08x}.so"


@functools.cache
def kernels():
    """The loaded library, or None where the numpy core must run.

    Built at the first call only if the cache holds no library for this
    source, and cached for the process: a forked worker inherits the
    result, and a spawned one loads the library from the cache."""
    if sys.maxsize <= 2**32:
        return None
    try:
        path = library_path()
        if not path.exists():
            path.parent.mkdir(exist_ok=True)
            if not build(path):
                return None
        lib = load(path)
    except (OSError, AttributeError):  # AttributeError: a kernel is missing
        return None
    return lib if _matches_numpy(lib) else None
