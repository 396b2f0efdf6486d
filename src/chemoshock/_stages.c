/* The compiled loops of chemoshock: one per stage of solver._advance and
 * one for its finite checks, and the snapshot printer of core.write_snapshot.
 * _native.py compiles this file into a shared library on first use and loads
 * it through ctypes; the numpy stages and the Python snapshot writer are the
 * reference, and the fallback when it does not build.
 *
 * Each stage loop does the IEEE operations of its numpy stage, in the same
 * order, so the results are the same bytes; only the speed bound meets its
 * terms in another order, which gives the same max (see there).  That needs
 * a build that fuses no multiply-add and reassociates nothing:
 * -ffp-contract=off, and no -ffast-math.  -fno-math-errno only lets sqrt
 * compile to one instruction.
 *
 * Arrays are contiguous doubles; n is the node count (n >= 4) and m = n - 2
 * the interior count.
 */

#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

/* One node's term of the speed bound: a + sqrt(4*chi*max(u, 0) + a*a), a = chi*|v|. */
static inline double speed_term(double u, double v, double chi, double c4)
{
    const double a = chi * fabs(v);
    const double p = u < 0.0 ? 0.0 : u; /* keeps a nan, as np.maximum does */
    return sqrt(p * c4 + a * a) + a;
}

/* speed_bound in one lane, in node order: the reference for any input. */
static double speed_bound_ref(const double *u, const double *v, long n, double chi)
{
    const double c4 = 4.0 * chi;
    double m = 0.0; /* every term is >= 0 or nan */
    for (long i = 0; i < n; i++) {
        const double r = speed_term(u[i], v[i], chi, c4);
        if (r > m || r != r) /* once m is nan it stays nan */
            m = r;
    }
    return 0.5 * m;
}

/* 0.5 * max_i (a_i + sqrt(4*chi*max(u_i, 0) + a_i*a_i)) with a_i = chi*|v_i|,
 * nan when any term is nan: solver._speed_bound.
 *
 * Four lanes, each with its own running max m[j] and a sum s[j] of r*0.0,
 * which is +0 for a finite term and nan for an inf or nan one.  -O2
 * vectorizes the loop over the lanes into two-wide sqrtpd (it if-converts
 * the u < 0 select, which four written-out lanes would keep as branches).
 * Every finite term is >= +0 for chi >= 0, and a term that ties with m never
 * replaces it, so the max of finite terms is the same bits whichever lane
 * meets each term, in whatever order.  A nan is not: the one-lane loop
 * returns the first one it meets, sign and payload.  So when a sum is not 0
 * the one-lane loop, kept as the reference, decides.  An inf term sends it
 * there too, since r*0.0 cannot tell inf from nan; a term is inf only on
 * overflow or non-finite data, so that path is rare. */
double speed_bound(const double *u, const double *v, long n, double chi)
{
    const double c4 = 4.0 * chi;
    double m[4] = {0.0, 0.0, 0.0, 0.0}, s[4] = {0.0, 0.0, 0.0, 0.0};
    long i = 0;
    for (; i + 4 <= n; i += 4) {
        for (int j = 0; j < 4; j++) {
            const double r = speed_term(u[i + j], v[i + j], chi, c4);
            s[j] += r * 0.0;
            m[j] = r > m[j] ? r : m[j];
        }
    }
    for (; i < n; i++) {
        const double r = speed_term(u[i], v[i], chi, c4);
        s[0] += r * 0.0;
        m[0] = r > m[0] ? r : m[0];
    }
    if ((s[0] + s[1]) + (s[2] + s[3]) != 0.0)
        return speed_bound_ref(u, v, n, chi);
    const double m01 = m[1] > m[0] ? m[1] : m[0], m23 = m[3] > m[2] ? m[3] : m[2];
    return 0.5 * (m23 > m01 ? m23 : m01);
}

/* out_i = (u_(i+1)*v_(i+1) - u_(i-1)*v_(i-1))*flux_w + u_i
 *         [+ ((u_(i+1) + u_(i-1)) - 2*u_i)*diff_w when diff_w != 0]
 * on the interior nodes; out[0] and out[n-1] are left as they are:
 * solver._explicit_rhs. */
void explicit_rhs(const double *u, const double *v, long n, double flux_w, double diff_w,
                  double *out)
{
    if (diff_w != 0.0) {
        for (long i = 1; i < n - 1; i++) {
            const double r = (u[i + 1] * v[i + 1] - u[i - 1] * v[i - 1]) * flux_w + u[i];
            out[i] = r + ((u[i + 1] + u[i - 1]) - 2.0 * u[i]) * diff_w;
        }
    } else {
        for (long i = 1; i < n - 1; i++)
            out[i] = (u[i + 1] * v[i + 1] - u[i - 1] * v[i - 1]) * flux_w + u[i];
    }
}

/* Fold the pinned end values into the m >= 2 right-hand sides b, then solve
 * L*D*L^T x = b in place with the pivots d and the subdiagonal e of the unit
 * factor L, as LAPACK's dptts2 does for one right-hand side:
 * solver._implicit_solve.
 *
 * When a has changed, k >= 0: d[:k] holds the head pivots, and every pivot
 * from k on is d_plus.  The factor is then completed here: e_i = -a/d_i on
 * the head, and d_i = d_plus, e_i = -a/d_plus from k on.  The tail is stored
 * inside the forward sweep, whose chain of dependent multiply-subtracts
 * leaves the store port idle, so the refill costs no separate pass. */
void implicit_solve(double *b, long m, double a, double left, double right, double *d,
                    double *e, long k, double d_plus)
{
    const long fill = k < 0 ? m : k; /* d and e are stored from index fill on */
    const double e_plus = k < 0 ? 0.0 : -a / d_plus;
    for (long i = 0; i < k && i < m - 1; i++)
        e[i] = -a / d[i];
    b[0] += a * left;
    b[m - 1] += a * right;
    double x = b[0]; /* b[i - 1], kept out of memory that the fill may alias */
    for (long i = 1; i < m; i++) {
        if (i - 1 >= fill) {
            d[i - 1] = d_plus;
            e[i - 1] = e_plus;
        }
        x = b[i] - x * e[i - 1];
        b[i] = x;
    }
    if (fill < m)
        d[m - 1] = d_plus;
    b[m - 1] = b[m - 1] / d[m - 1];
    for (long i = m - 2; i >= 0; i--)
        b[i] = b[i] / d[i] - b[i + 1] * e[i];
}

/* out = left, (u_(i+1) - u_(i-1))*dv_w + v_i inside, right: solver._update_v. */
void update_v(const double *u, const double *v, long n, double dv_w, double left,
              double right, double *out)
{
    out[0] = left;
    for (long i = 1; i < n - 1; i++)
        out[i] = (u[i + 1] - u[i - 1]) * dv_w + v[i];
    out[n - 1] = right;
}

/* min(x) when every entry is finite, else nan: solver._finite_min.  x*0 is
 * 0 for a finite x and nan for inf or nan, so a sum of them flags any
 * non-finite entry.  Four running sums and minima, so that no add or compare
 * waits on the one before it. */
double finite_min(const double *x, long n)
{
    double m0 = x[0], m1 = x[0], m2 = x[0], m3 = x[0];
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    long i = 0;
    for (; i + 4 <= n; i += 4) {
        s0 += x[i] * 0.0;
        s1 += x[i + 1] * 0.0;
        s2 += x[i + 2] * 0.0;
        s3 += x[i + 3] * 0.0;
        m0 = x[i] < m0 ? x[i] : m0;
        m1 = x[i + 1] < m1 ? x[i + 1] : m1;
        m2 = x[i + 2] < m2 ? x[i + 2] : m2;
        m3 = x[i + 3] < m3 ? x[i + 3] : m3;
    }
    for (; i < n; i++) {
        s0 += x[i] * 0.0;
        m0 = x[i] < m0 ? x[i] : m0;
    }
    if ((s0 + s1) + (s2 + s3) != 0.0)
        return NAN;
    m0 = m1 < m0 ? m1 : m0;
    m2 = m3 < m2 ? m3 : m2;
    return m2 < m0 ? m2 : m0;
}

/* The snapshot printer: each value exactly as Python's '%.17g' % value
 * writes it, that is correctly rounded to 17 significant digits, ties to even,
 * and laid out as %g does.  It needs 128-bit integers; without them
 * printer_available() is 0 and core.write_snapshot keeps its Python writer.
 *
 * For a finite x = m*2^e and k = floor(log10|x|), the digits are
 * D = round(|x|*10^s) with s = 16 - k.  pow10[s - POW10_MIN] holds 10^s as
 * P*2^q, P the 128-bit truncation, so the exact product Y = m*P (192 bits)
 * puts |x|*10^s in [Y, Y + m)*2^(e+q).  When that interval leaves no doubt
 * about the rounding, D is final; when it holds the halfway point, or Y is
 * the halfway point itself (an exact tie), the C library's snprintf prints x
 * instead.  An estimate of k that leaves D outside [10^16, 10^17) is moved by
 * one and tried again (Gay 1990; Adams, "Ryu revisited", 2019). */

#define POW10_MIN (-292) /* 16 - 308: _native._POW10_MIN */
#define POW10_MAX 340    /* 16 + 324: _native._POW10_MAX */

struct pow10 {
    uint64_t hi, lo; /* P = hi*2^64 + lo, 2^127 <= P < 2^128 */
    int64_t q;
};

#ifdef __SIZEOF_INT128__

typedef unsigned __int128 u128;

int printer_available(void) { return 1; }

/* The 8 decimal digits of x < 10^8, leading zeros kept, at p. */
static void put8(char *p, uint32_t x)
{
    static const char pairs[] = "00010203040506070809101112131415161718192021222324"
                                "25262728293031323334353637383940414243444546474849"
                                "50515253545556575859606162636465666768697071727374"
                                "75767778798081828384858687888990919293949596979899";
    for (int i = 6; i >= 0; i -= 2) {
        memcpy(p + i, pairs + 2 * (x % 100), 2);
        x /= 100;
    }
}

/* Lays out the 17 digits of D, with decimal exponent k, as %.17g does:
 * fixed for -4 <= k < 17, else d.ddde+XX; trailing zeros and a bare point
 * dropped.  Returns the end of the text. */
static char *layout_g17(char *p, uint64_t D, int k)
{
    char dig[17];
    const uint64_t top = D / 100000000; /* nine digits, then eight */
    put8(dig + 9, (uint32_t)(D - top * 100000000));
    put8(dig + 1, (uint32_t)(top % 100000000));
    dig[0] = (char)('0' + top / 100000000);
    int nd = 17; /* digits up to the last nonzero one */
    while (nd > 1 && dig[nd - 1] == '0')
        nd--;
    if (k >= 0 && k < 17) {
        const int whole = k + 1;
        memcpy(p, dig, whole);
        p += whole;
        if (nd > whole) {
            *p++ = '.';
            memcpy(p, dig + whole, nd - whole);
            p += nd - whole;
        }
        return p;
    }
    if (k < 0 && k >= -4) {
        *p++ = '0';
        *p++ = '.';
        for (int i = -1; i > k; i--)
            *p++ = '0';
        memcpy(p, dig, nd);
        return p + nd;
    }
    *p++ = dig[0];
    if (nd > 1) {
        *p++ = '.';
        memcpy(p, dig + 1, nd - 1);
        p += nd - 1;
    }
    *p++ = 'e';
    *p++ = k < 0 ? '-' : '+';
    const int a = k < 0 ? -k : k;
    if (a >= 100)
        *p++ = (char)('0' + a / 100);
    *p++ = (char)('0' + a / 10 % 10);
    *p++ = (char)('0' + a % 10);
    return p;
}

/* Writes x as '%.17g' % x into out, which holds 26 bytes (the text takes at
 * most 24, and snprintf adds a NUL), and returns the length of the text,
 * negated when snprintf wrote it. */
static int g17(double x, const struct pow10 *pow10, char *out)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const int be = (int)(bits >> 52 & 0x7ff);
    uint64_t m = bits & ((UINT64_C(1) << 52) - 1);
    char *p = out;
    if (be == 0x7ff) { /* Python writes nan for a nan of either sign */
        const char *name = m != 0 ? "nan" : bits >> 63 ? "-inf" : "inf";
        const size_t len = strlen(name);
        memcpy(out, name, len);
        return (int)len;
    }
    if (bits >> 63)
        *p++ = '-';
    if (be == 0 && m == 0) {
        *p++ = '0';
        return (int)(p - out);
    }
    int e = -1074; /* x = m*2^e */
    if (be != 0) {
        m |= UINT64_C(1) << 52;
        e = be - 1075;
    }
    const int b = e + 63 - __builtin_clzll(m); /* 2^b <= |x| < 2^(b+1) */
    int k = (int)floor(b * 0.30102999566398120); /* k or k - 1 */
    for (int tries = 0; tries < 3; tries++) {
        const int s = 16 - k;
        if (s < POW10_MIN || s > POW10_MAX)
            break;
        const struct pow10 *t = &pow10[s - POW10_MIN];
        const u128 lo = (u128)m * t->lo;
        const u128 hi = (u128)m * t->hi + (uint64_t)(lo >> 64); /* Y = hi*2^64 + y0 */
        const uint64_t y0 = (uint64_t)lo;
        const int shift = -(e + (int)t->q) - 64; /* bits of hi below the units */
        if (shift < 1 || shift > 100)
            break;
        /* the fraction is fh*2^64 + y0 out of 2^(shift + 64); half is half*2^64 */
        const u128 half = (u128)1 << (shift - 1);
        const u128 fh = hi & ((half << 1) - 1);
        uint64_t D = (uint64_t)(hi >> shift);
        const int at_most_half = fh < half || (fh == half && y0 == 0);
        const uint64_t gl = y0 + m; /* the fraction plus m */
        const u128 gh = fh + (gl < y0);
        const int over_half = gh > half || (gh == half && gl != 0);
        if (at_most_half && over_half)
            break; /* a tie, or too close to one to tell */
        D += !at_most_half;
        if (D >= UINT64_C(100000000000000000)) {
            k++;
        } else if (D < UINT64_C(10000000000000000)) {
            k--;
        } else {
            return (int)(layout_g17(p, D, k) - out);
        }
    }
    return -snprintf(out, 26, "%.17g", x);
}

/* g17, exported for the tests. */
int format_value(double x, const struct pow10 *pow10, char *out)
{
    return g17(x, pow10, out);
}

/* The rows 'x u v [c]' of a snapshot, each value as g17 writes it,
 * into out, which holds at least 26 bytes per value; c is NULL for three
 * columns.  Returns the bytes written. */
long format_rows(const double *x, const double *u, const double *v, const double *c, long n,
                 const struct pow10 *pow10, char *out)
{
    char *p = out;
    const double *cols[4] = {x, u, v, c};
    const int ncols = c ? 4 : 3;
    for (long i = 0; i < n; i++) {
        for (int j = 0; j < ncols; j++) {
            const int len = g17(cols[j][i], pow10, p);
            p += len < 0 ? -len : len;
            *p++ = j + 1 < ncols ? ' ' : '\n';
        }
    }
    return (long)(p - out);
}

#else

int printer_available(void) { return 0; }

#endif
