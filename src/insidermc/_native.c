/* The compiled Gaussian core: splitmix64 uniforms and the inverse normal
 * CDF, each the same IEEE operations in the same order as the numpy core in
 * sampling.py and special.py, so every result is bitwise that core's.
 *
 * _native.py prepends the constants, rendered as hex-float literals from
 * their Python homes, and compiles with -ffp-contract=off and without fast
 * math, so no multiply and add fuse and no sum is reassociated.  The core
 * uses only +, -, *, /, sqrt and bit operations, which IEEE 754 rounds
 * correctly on every CPU, and calls no libm function. */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* One machine-code clone per x86-64 level, chosen when the library loads;
 * the bits are the same in each, only the vector width differs. */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12 \
    && !defined(INSIDERMC_NO_CLONES)
#define CLONES __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define CLONES
#endif

/* The draws inverse_cdf takes per pass: its tails are gathered from one
 * piece before the central pass overwrites it. */
#define PIECE 512

/* Inlined into each clone, so every helper runs at its caller's level. */
#define INLINE static inline __attribute__((always_inline))

/* Uniforms strictly inside (0, 1) at the Weyl sequence c + k GOLDEN,
 * k = 0..n-1: the splitmix64 finalizer, then u = fl(t + 0.5) 2^-53 with
 * t = word >> 11, clamped below 1. */
CLONES void uniforms(uint64_t c, double *out, size_t n)
{
    const double top = 1.0 - TO_UNIT;
    for (size_t k = 0; k < n; k++) {
        uint64_t z = c + (uint64_t)k * GOLDEN;
        z ^= z >> 30;
        z *= MIX1;
        z ^= z >> 27;
        z *= MIX2;
        z ^= z >> 31;
        /* Below 2^53, so exact as a double. */
        double u = ((double)(int64_t)(z >> 11) + 0.5) * TO_UNIT;
        out[k] = u < top ? u : top;
    }
}

/* The last index of a rendered constant array: the degree of its
 * polynomial, so a refit of another degree needs no edit here. */
#define LAST(a) ((int)(sizeof(a) / sizeof((a)[0])) - 1)

/* p(t)/q(t) by Horner's rule: ascending coefficients, q monic. */
INLINE double ratio(double t, const double *p, int np, const double *q, int nq)
{
    double num = t * p[np] + p[np - 1];
    for (int k = np - 2; k >= 0; k--)
        num = num * t + p[k];
    double den = t + q[nq - 1];
    for (int k = nq - 2; k >= 0; k--)
        den = den * t + q[k];
    return num / den;
}

#define RATIO(t, p, q) ratio(t, p, LAST(p), q, LAST(q))

/* x = 2q + q S(W_EDGE - q^2), q = u - 0.5. */
INLINE double central(double u)
{
    double q = u - 0.5;
    double s = RATIO(W_EDGE - q * q, CENTRAL_P, CENTRAL_Q);
    return (q + q) + s * q;
}

/* -log p for 0 < p < 0.125: p = m 2^e exactly, m in [0.5, 1), then
 * log m = log 0.75 + 2 atanh(s), s = (m - 0.75)/(m + 0.75), and -e log 2
 * in Cody and Waite's two parts. */
INLINE double minus_log(double p)
{
    uint64_t bits;
    memcpy(&bits, &p, sizeof bits);
    /* A subnormal p is scaled into the normal range, exactly. */
    int subnormal = bits >> 52 == 0;
    p = subnormal ? p * 0x1p64 : p;
    memcpy(&bits, &p, sizeof bits);
    int64_t e = (int64_t)(bits >> 52) - (subnormal ? 1086 : 1022);
    bits = (bits & 0x000fffffffffffffu) | (uint64_t)1022 << 52;
    double m;
    memcpy(&m, &bits, sizeof m);
    double s = (m - 0.75) / (m + 0.75);
    double z = s * s;
    double series = z * ATANH_SERIES[0];
    for (int k = 1; k < LAST(ATANH_SERIES); k++)
        series = (series + ATANH_SERIES[k]) * z;
    series = (series + ATANH_SERIES[LAST(ATANH_SERIES)]) * s;
    double low = ((double)e * -LN2_LO + MINUS_LOG_THREE_QUARTERS) - series;
    return (double)e * -LN2_HI + low;
}

/* Phi^{-1}(u) outside [U_LO, U_HI]: +-(r + h(r)), r = sqrt(-log min(u, 1 - u)). */
INLINE double tail(double u)
{
    double p = 1.0 - u;
    p = p < u ? p : u;
    double r = __builtin_sqrt(minus_log(p));
    double near = RATIO(r - R_LO, TAIL_P, TAIL_Q);
    double far = RATIO(r - R_EDGE, FAR_TAIL_P, FAR_TAIL_Q);
    double h = r > R_EDGE ? far : near;
    return __builtin_copysign(r + h, u - 0.5);
}

/* The inverse normal CDF of x[0..n-1], each strictly inside (0, 1), in place. */
CLONES void inverse_cdf(double *x, size_t n)
{
    uint32_t at[PIECE];
    double u_tails[PIECE];
    for (size_t start = 0; start < n; start += PIECE) {
        double *piece = x + start;
        size_t m = n - start < PIECE ? n - start : PIECE;
        size_t tails = 0;
        for (size_t i = 0; i < m; i++) {
            at[tails] = (uint32_t)i;
            u_tails[tails] = piece[i];
            tails += (piece[i] < U_LO) | (piece[i] > U_HI);
        }
        for (size_t i = 0; i < m; i++)
            piece[i] = central(piece[i]);
        for (size_t j = 0; j < tails; j++)
            u_tails[j] = tail(u_tails[j]);
        for (size_t j = 0; j < tails; j++)
            piece[at[j]] = u_tails[j];
    }
}
