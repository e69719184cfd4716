import hashlib
import inspect
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from insidermc import NotFiniteError, OutOfDomainError, erf, inverse_normal_cdf, normal_cdf
from insidermc import special
from insidermc.sampling import RngStream, standard_normal_block, uniform_block
from insidermc.special import _PIECE, _inverse_normal_cdf_array
from insidermc.verify import ERF_ORACLE_POINTS

# mpmath (50 digits) oracle constants, frozen before the implementation:
ERF_INV_SQRT2 = 0.6826894921370859  # = P(|Z| <= 1)
PHI_1 = 0.8413447460685429
PHI_MINUS_1 = 0.15865525393145705

# mpmath (50 digits) oracle (x, Phi(x)) in the lower tail, rounded to the
# nearest double, frozen: from -1 down to -37.5, where Phi(x) is still a
# normal double, and on below the smallest subnormal (-39.9, -inf).
PHI_TAIL_ORACLE_POINTS = [
    (-1.0, 0.15865525393145705),
    (-5.0, 2.866515718791939e-07),
    (-10.0, 7.619853024160525e-24),
    (-20.0, 2.7536241186062337e-89),
    (-30.0, 4.906713927148187e-198),
    (-36.8, 9.231293481419022e-297),
    (-37.5, 4.605353009581955e-308),
    (-39.9, 0.0),
    (-math.inf, 0.0),
]

# mpmath (50 digits) oracle (u, Phi^{-1}(u)) over the guaranteed domain
# [1e-300, 1 - 2^-53], frozen: both tails, the central range, 0.5 and its
# nearest doubles.  Each u is an exact double; for u > 0.5 the reference is
# -Phi^{-1}(1 - u), 1 - u being exact.
INVERSE_ORACLE_POINTS = [
    (1e-300, -37.0470962993612),
    (1e-290, -36.420731673207996),
    (1e-280, -35.78342139466302),
    (1e-270, -35.13457108169202),
    (1e-260, -34.473530546165776),
    (1e-250, -33.79958617269484),
    (1e-240, -33.11195190498638),
    (1e-230, -32.409758515589346),
    (1e-220, -31.69204074177796),
    (1e-210, -30.95772174491063),
    (1e-200, -30.20559417957964),
    (1e-190, -29.43429692247552),
    (1e-180, -28.64228617928618),
    (1e-170, -27.827799215194567),
    (1e-160, -26.988808268418403),
    (1e-150, -26.122961190593983),
    (1e-140, -25.22750382094229),
    (1e-130, -24.299176717508363),
    (1e-120, -23.334075067341868),
    (1e-110, -22.327454339592123),
    (1e-100, -21.273453560965326),
    (1e-90, -20.164689059718683),
    (1e-80, -18.991635878820208),
    (1e-70, -17.741643174195335),
    (1e-60, -16.39727821271871),
    (1e-50, -14.933337534788489),
    (1e-40, -13.31092137142517),
    (1e-30, -11.464024688443615),
    (1e-20, -9.262340089798407),
    (1e-18, -8.757290348782314),
    (1e-16, -8.222082216130435),
    (1e-14, -7.650628092935269),
    (1e-12, -7.034483825301132),
    (1e-10, -6.361340902404057),
    (1e-08, -5.612001244174789),
    (2.5e-07, -5.026312836056685),
    (1e-06, -4.753424308822899),
    (0.0001, -3.7190164854556804),
    (0.0073, -2.4421519515770322),
    (0.01, -2.326347874040841),
    (0.025, -1.9599639845400543),
    (0.05, -1.6448536269514726),
    (0.1, -1.2815515655446004),
    (0.15, -1.0364333894937896),
    (0.1587, -0.9998150936147444),
    (0.2, -0.8416212335729142),
    (0.25, -0.6744897501960817),
    (0.3, -0.5244005127080408),
    (0.35, -0.3853204664075677),
    (0.4, -0.2533471031357997),
    (0.4375, -0.1573106846101707),
    (0.45, -0.12566134685507402),
    (0.4990234375, -0.0024478816191106775),
    (0.4999990463256836, -2.390507006295574e-06),
    (0.4999999990686774, -2.3344794983332983e-09),
    (0.4999999999990905, -2.2797651350911116e-12),
    (0.4999999999999999, -2.782916424671767e-16),
    (0.49999999999999994, -1.3914582123358836e-16),
    (0.5, 0.0),
    (0.5000000000000001, 2.782916424671767e-16),
    (0.5000000000009095, 2.2797651350911116e-12),
    (0.5000000009313226, 2.3344794983332983e-09),
    (0.5000009536743164, 2.390507006295574e-06),
    (0.5009765625, 0.0024478816191106775),
    (0.55, 0.12566134685507416),
    (0.5625, 0.1573106846101707),
    (0.6, 0.2533471031357997),
    (0.65, 0.3853204664075677),
    (0.7, 0.5244005127080407),
    (0.75, 0.6744897501960817),
    (0.8, 0.8416212335729144),
    (0.8413, 0.9998150936147446),
    (0.85, 1.0364333894937894),
    (0.9, 1.2815515655446006),
    (0.95, 1.6448536269514722),
    (0.975, 1.9599639845400538),
    (0.99, 2.3263478740408408),
    (0.9927, 2.4421519515770336),
    (0.99609375, 2.6600674686174597),
    (0.9999, 3.7190164854557084),
    (0.9999847412109375, 4.169569323349106),
    (0.999999, 4.753424308817087),
    (0.9999999403953552, 5.294704084854598),
    (0.99999999, 5.612001243305505),
    (0.9999999997671694, 6.230260137989043),
    (0.9999999999, 6.361340889697422),
    (0.999999999999, 7.0344869100478356),
    (0.9999999999990905, 7.047700256664409),
    (0.9999999999999432, 7.423939811985983),
    (0.99999999999999, 7.650730905155643),
    (0.9999999999999964, 7.782590617802448),
    (0.9999999999999991, 7.956038125481531),
    (0.9999999999999996, 8.041399959096543),
    (0.9999999999999998, 8.125890664701906),
    (0.9999999999999999, 8.209536151601387),
]
# The edges of the stream and of the contract.
EDGES = [1e-300, 2.0**-54, 0.5 - 2.0**-54, 0.5, 0.5 + 2.0**-53, 1.0 - 2.0**-53]


def test_erf_archived_oracle_points():
    for x, expected in ERF_ORACLE_POINTS:
        assert abs(erf(x) - expected) <= 1e-12


def test_erf_against_runtime_quadrature():
    """Independent oracle: adaptive quadrature of the defining integrand."""
    for x in (0.1, 1 / math.sqrt(2), 1.3, 2.0, 2.7):
        integral, err = integrate.quad(lambda t: math.exp(-t * t), 0.0, x, epsabs=1e-14)
        assert err < 1e-12  # quadrature certified below the comparison tolerance
        assert erf(x) == pytest.approx(2.0 / math.sqrt(math.pi) * integral, abs=2e-12)


def test_erf_reference_values():
    assert erf(0.0) == 0.0
    assert erf(1 / math.sqrt(2)) == pytest.approx(ERF_INV_SQRT2, abs=1e-12)
    # erfc(6) < 3e-17, far below the 1e-12 tolerance
    assert erf(6.0) == pytest.approx(1.0, abs=1e-12)


def test_erf_edge_handling():
    assert erf(math.inf) == 1.0
    assert erf(-math.inf) == -1.0
    with pytest.raises(NotFiniteError):
        erf(float("nan"))


@given(st.floats(min_value=-10, max_value=10))
def test_erf_is_odd_exactly(x):
    assert erf(-x) == -erf(x)


def test_erf_monotone_on_dense_grid():
    values = [erf(x) for x in np.linspace(-8, 8, 4001)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(-1.0 <= v <= 1.0 for v in values)


def test_normal_cdf_reference_values():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.0) == pytest.approx(PHI_1, abs=1e-12)
    assert normal_cdf(-1.0) == pytest.approx(PHI_MINUS_1, abs=1e-12)
    assert normal_cdf(math.inf) == 1.0
    assert normal_cdf(-math.inf) == 0.0
    with pytest.raises(NotFiniteError):
        normal_cdf(float("nan"))


@pytest.mark.parametrize("x, expected", PHI_TAIL_ORACLE_POINTS)
def test_normal_cdf_lower_tail_matches_oracle(x, expected):
    # erfc(-x/sqrt(2)) alone is 2.4e-15 off at -5 and 1.6e-13 at -36.8.
    assert abs(normal_cdf(x) - expected) <= 1e-15 * expected


def test_normal_cdf_against_runtime_quadrature():
    density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    for x in (-2.5, -1.0, 0.3, 1.0, 3.0):
        integral, err = integrate.quad(density, -12.0, x, epsabs=1e-14)
        assert normal_cdf(x) == pytest.approx(integral, abs=1e-12)


@given(st.floats(min_value=-12, max_value=12))
def test_normal_cdf_symmetry(x):
    assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)


def test_inverse_reference_values():
    assert inverse_normal_cdf(0.5) == 0.0
    assert inverse_normal_cdf(PHI_1) == pytest.approx(1.0, abs=1e-9)
    for bad in (0.0, 1.0, -0.1, 1.1, float("nan")):
        with pytest.raises(OutOfDomainError):
            inverse_normal_cdf(bad)


def test_inverse_archived_oracle_points():
    assert INVERSE_ORACLE_POINTS[0][0] == 1e-300
    assert INVERSE_ORACLE_POINTS[-1][0] == 1.0 - 2.0**-53
    for u, expected in INVERSE_ORACLE_POINTS:
        x = inverse_normal_cdf(u)
        assert abs(x - expected) <= 1e-14 * abs(expected), (u, x, expected)
        assert abs(normal_cdf(x) - u) <= 1e-12, (u, x)


def test_inverse_fold_is_exactly_antisymmetric():
    # The stream's draws, and the edges above 0.5: below it, an edge's
    # 1 - u is not a double.
    edges = [e for e in EDGES if e > 0.5]
    u = uniform_block(RngStream(5), 0, 30_000)
    u = np.concatenate([u[u >= 0.5][:10_000], edges])
    assert u.size == 10_000 + len(edges)
    upper = _inverse_normal_cdf_array(u.copy())
    lower = _inverse_normal_cdf_array(1.0 - u)  # 1 - u is exact for u >= 0.5
    assert np.array_equal(upper.view(np.int64), (-lower).view(np.int64))
    center = _inverse_normal_cdf_array(np.array([0.5]))[0]
    assert center == 0.0 and math.copysign(1.0, center) == 1.0


def test_fused_fold_matches_select_fold_bitwise():
    """One call over all of (0, 1) == the branchy select fold, which runs the
    core on min(u, 1 - u) and negates the upper half, sign of zero included."""
    u = np.concatenate([uniform_block(RngStream(3), 0, 20_000), EDGES])
    upper = u > 0.5
    x = _inverse_normal_cdf_array(np.where(upper, 1.0 - u, u))
    reference = np.where(upper, -x, x)
    assert np.array_equal(_inverse_normal_cdf_array(u).view(np.int64), reference.view(np.int64))


def test_inverse_hits_target_probability():
    """|Phi(x) - u| <= 1e-12 across the guaranteed domain."""
    us = np.concatenate(
        [
            10.0 ** np.arange(-300, -1, 7.0),
            np.linspace(1e-3, 1 - 1e-3, 201),
            1.0 - 10.0 ** np.arange(-16, -2, 1.0),
        ]
    )
    for u in us:
        x = inverse_normal_cdf(float(u))
        assert abs(normal_cdf(x) - float(u)) <= 1e-12


def test_inverse_strictly_increasing():
    # One core call; test_inverse_is_one_elementwise_core pins the scalar
    # to the core bitwise.
    xs = _inverse_normal_cdf_array(np.linspace(1e-9, 1 - 1e-9, 20001)).tolist()
    assert all(b > a for a, b in zip(xs, xs[1:]))


def test_round_trip_through_representable_tail():
    """x -> Phi(x) -> x within 1e-8 for |x| <= 8.

    Above x ~ 6.05 the double nearest Phi(x) is within an ulp of 1 and the
    literal composition is quantization-limited (plateau ulp(1)/pdf(x),
    0.022 at x = 8), so those magnitudes round-trip through the lower tail,
    which exercises the same folded code path with full relative precision.
    """
    for x in np.arange(-8.0, 8.0 + 1e-9, 0.005):
        if x <= 6.0:
            assert abs(inverse_normal_cdf(normal_cdf(x)) - x) <= 1e-8
        else:
            assert abs(inverse_normal_cdf(normal_cdf(-x)) + x) <= 1e-8


# tools/fit_inverse_normal.py's frozen table: label, u, Phi^{-1}(u) to 25
# digits.  ``python tools/fit_inverse_normal.py --check`` recomputes it.
ORACLE_TABLE = [
    (label, float(u), Decimal(x))
    for label, u, x in (
        line.split() for line in
        (Path(__file__).with_name("inverse_normal_oracle.txt")).read_text().splitlines()
        if not line.startswith("#")
    )
]


def test_inverse_matches_the_dense_oracle_table():
    assert len(ORACLE_TABLE) >= 2000
    u = np.array([row[1] for row in ORACLE_TABLE])
    assert u.min() == 1e-300 and u.max() == 1.0 - 2.0**-53
    x = _inverse_normal_cdf_array(u)
    rel = [abs((Decimal(float(v)) - exact) / exact) if exact else Decimal(float(v) != 0)
           for v, (_, _, exact) in zip(x, ORACLE_TABLE)]
    worst = max(range(len(rel)), key=rel.__getitem__)
    assert rel[worst] <= Decimal("2e-15"), (ORACLE_TABLE[worst], x[worst], rel[worst])


def test_inverse_is_nondecreasing_across_every_piece_edge():
    # The table holds the +-64 doubles around each edge between pieces and
    # the 16 on each side of 0.5, in increasing order.
    windows = {}
    for label, u, _ in ORACLE_TABLE:
        if label.startswith("edge") or label == "half":
            windows.setdefault(label, []).append(u)
    assert sorted(windows) == ["edge-far", "edge-high", "edge-low", "half"]
    for label, u in windows.items():
        u = np.array(u)
        assert np.all(np.diff(u) > 0) and np.all(np.diff(u.view(np.int64)) == 1), label
        assert np.all(np.diff(_inverse_normal_cdf_array(u)) >= 0), label


def test_inverse_is_finite_without_warning_down_to_the_smallest_subnormal():
    # Every binade of (0, 1/2) at its bottom, middle and top, and every
    # double 1 - 2^-k.
    k = np.arange(1, 1075)
    with np.errstate(under="ignore"):
        lower = np.concatenate([np.ldexp(1.0, -k), np.ldexp(0.75, -k[:-1]),
                                np.ldexp(1.0 - 2.0**-53, -k[:-1])])
    u = np.concatenate([lower[lower > 0.0], 1.0 - np.ldexp(1.0, -np.arange(1, 54))])
    assert u.min() == 5e-324 and u.max() == 1.0 - 2.0**-53
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        x = _inverse_normal_cdf_array(u.copy())
    assert np.all(np.isfinite(x))
    order = np.argsort(u)
    assert np.all(np.diff(x[order]) >= 0)


def test_inverse_is_one_elementwise_core():
    # A value's bits do not depend on which draws share its call, nor on
    # where the call's pieces are cut, and the scalar goes through the
    # same core.
    u = np.concatenate([uniform_block(RngStream(3), 0, _PIECE + 4099), EDGES,
                        [row[1] for row in ORACLE_TABLE]])
    whole = _inverse_normal_cdf_array(u.copy())
    shuffled = np.random.default_rng(2).permutation(u.size)
    assert np.array_equal(_inverse_normal_cdf_array(u[shuffled]).view(np.int64),
                          whole[shuffled].view(np.int64))
    for start, stop in ((0, 7), (_PIECE - 5, _PIECE + 9), (u.size - 3000, u.size)):
        part = _inverse_normal_cdf_array(u[start:stop].copy())
        assert np.array_equal(part.view(np.int64), whole[start:stop].view(np.int64))
    singles = [inverse_normal_cdf(float(v)) for v in u[::97]]
    assert np.array_equal(np.array(singles).view(np.int64), whole[::97].view(np.int64))


def test_core_takes_the_vector_alone_and_transforms_it_in_place():
    assert list(inspect.signature(_inverse_normal_cdf_array).parameters) == ["x"]
    u = uniform_block(RngStream(3), 0, 5000)
    x = u.copy()
    assert _inverse_normal_cdf_array(x) is x
    assert np.array_equal(x, standard_normal_block(RngStream(3), 0, 5000))
    assert not np.array_equal(x, u)


def test_a_second_call_on_one_thread_allocates_no_central_scratch():
    # The central temporaries, (3, _PIECE) doubles on a 64-byte boundary,
    # come from the spare list the first call filled; the second call's
    # whole peak stays below them.
    u = uniform_block(RngStream(4), 0, _PIECE)
    _inverse_normal_cdf_array(u.copy())
    spares = [id(work) for work in special._SPARE_WORK]
    x = u.copy()
    tracemalloc.start()
    try:
        _inverse_normal_cdf_array(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * _PIECE * 8
    assert [id(work) for work in special._SPARE_WORK] == spares != []
    assert all(work.ctypes.data % 64 == 0 for work in special._SPARE_WORK)


def test_concurrent_calls_never_share_a_central_scratch(monkeypatch):
    # Switching threads every microsecond interleaves the calls' numpy
    # passes; a shared scratch would mix their temporaries.  Each call
    # spans several central pieces.
    monkeypatch.setattr(special, "_SPARE_WORK", [])
    u = uniform_block(RngStream(8), 0, 3 * _PIECE + 123)
    serial = _inverse_normal_cdf_array(u.copy())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: _inverse_normal_cdf_array(u.copy()), range(16),
                                    timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for x in results:
        assert np.array_equal(x.view(np.int64), serial.view(np.int64))
    spares = special._SPARE_WORK
    assert 1 <= len(spares) <= 4
    assert len({id(work) for work in spares}) == len(spares)


# numpy's runtime switch to its AVX2 kernels on an AVX-512 host; it acts
# only on the process that sets it.
AVX2_DISPATCH = "AVX512_SPR AVX512_ICL X86_V4"
# Stream ranges whose draws reach the central piece and both tails, and the
# oracle points' quantiles, as digests.
DISPATCH_DIGESTS = (
    "import hashlib, sys\n"
    "import numpy as np\n"
    "from insidermc import inverse_normal_cdf\n"
    "from insidermc.sampling import RngStream, standard_normal_block\n"
    "sys.path.insert(0, {tests!r})\n"
    "from test_special import INVERSE_ORACLE_POINTS\n"
    "for seed, start in ((42, 0), (7, 2**40)):\n"
    "    z = standard_normal_block(RngStream(seed), start, 1 << 16)\n"
    "    print(hashlib.sha256(z.tobytes()).hexdigest(), z.min() < -3, z.max() > 3)\n"
    "x = np.array([inverse_normal_cdf(u) for u, _ in INVERSE_ORACLE_POINTS])\n"
    "print(hashlib.sha256(x.tobytes()).hexdigest())\n"
)


def test_normals_hold_on_another_cpu_dispatch():
    tests = Path(__file__).resolve().parent
    src = str(tests.parent / "src")
    code = DISPATCH_DIGESTS.format(tests=str(tests))
    env = {
        **{key: value for key, value in os.environ.items() if key != "NPY_DISABLE_CPU_FEATURES"},
        "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
    }
    outputs = []
    for dispatch in ({}, {"NPY_DISABLE_CPU_FEATURES": AVX2_DISPATCH}):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**env, **dispatch}, timeout=60, check=True)
        outputs.append(proc.stdout)
    native, avx2 = outputs
    lines = native.splitlines()
    assert [line.split()[1:] for line in lines[:2]] == [["True", "True"]] * 2
    z = standard_normal_block(RngStream(42), 0, 1 << 16)
    assert lines[0].split()[0] == hashlib.sha256(z.tobytes()).hexdigest()
    assert avx2 == native
