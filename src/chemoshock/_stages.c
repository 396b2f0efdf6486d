/* The compiled loops of chemoshock: one step of solver._advance and the
 * snapshot printer of core.write_snapshot.  _native.py compiles this file
 * into a shared library on first use and loads it through ctypes; the numpy
 * stages and the Python snapshot writer are the reference, and the fallback
 * when it does not build.  A run takes its first speed bound from numpy
 * (solver._speed_bound) and every later one from imex_step; the format_value
 * export is called only by the tests.
 *
 * The step is one call of two sweeps: the forward sweep computes the
 * right-hand side as it goes and stores a new factor's rows, and the back
 * sweep updates v one node behind the solve, runs the finite checks and takes
 * the next step's speed bound, which solver carries to the next step.  Each
 * stage inside it does the IEEE operations of its numpy stage, in the same
 * order, so the results are the same bytes; only the speed bound meets its
 * terms in another order, which gives the same max (see imex_step).  That
 * needs a build that fuses no multiply-add and reassociates nothing:
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

/* The larger of m and r: a tie, or a nan r, keeps m. */
static inline double max_term(double m, double r) { return r > m ? r : m; }

/* solver._speed_bound in node order: imex_step's bound of a state that is not
 * finite.  It returns the first nan term it meets, sign and payload. */
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

/* The explicit right-hand side at node j, with w_lo = u[j-1]*v[j-1] and
 * w_hi = u[j+1]*v[j+1]: solver._explicit_rhs. */
static inline double node_rhs(const double *u, double w_lo, double w_hi, long j, double flux_w,
                              double diff_w)
{
    const double r = (w_hi - w_lo) * flux_w + u[j];
    return diff_w != 0.0 ? r + ((u[j + 1] + u[j - 1]) - 2.0 * u[j]) * diff_w : r;
}

/* One step of solver._advance on the compiled path: its right-hand side,
 * solve and v update, its finite checks and the next step's speed bound, in
 * two sweeps over the grid.
 *
 * The forward sweep computes each interior node's right-hand side
 *     r_i = (u_(i+1)*v_(i+1) - u_(i-1)*v_(i-1))*flux_w + u_i
 *           [+ ((u_(i+1) + u_(i-1)) - 2*u_i)*diff_w when diff_w != 0]
 * as solver._explicit_rhs does, folds the pinned ends u[0] and u[n-1] into
 * the first and last one (times a), and runs the forward sweep of the solve
 * L*D*L^T x = r with the pivots d and the subdiagonal e of the unit factor
 * L, as LAPACK's dptts2 does for one right-hand side: solver._implicit_solve.
 * The back sweep finishes u_new and, one node behind it, sets
 *     v_new_i = (u_new_(i+1) - u_new_(i-1))*dv_w + v_i
 * once both neighbours are final: solver._update_v.  The ends of u_new and
 * v_new are those of u and v.  Each of these is a chain of dependent
 * multiply-subtracts that leaves the other execution ports idle, so the
 * right-hand side, the v update and the bound cost little inside them.
 *
 * When a is new, k >= 0 and t[0..k] holds expm1(log_q*(i + 1)) from
 * solver._Workspace.factor, and the forward sweep stores each row of the
 * factor where it uses it: the head pivots d_i = (t[i+1]/t[i])*d_plus for
 * i < k, with the divide and the multiply of solver._ldl_pivots in that
 * order, and e_i = -a/d_i; d_i = d_plus and e_i = -a/d_plus from k on; and
 * the last pivot, which only the back sweep reads, after the loop.  With
 * k < 0, d and e are used as they are, and t is not read.
 *
 * checks[0] is min(u_new), nan when any entry is not finite
 * (solver._finite_min); checks[1] is 1 when every v_new is finite, else 0;
 * checks[2] is solver._speed_bound(u_new, v_new), the next step's bound.
 * The back sweep takes all three: each node's bound term where its u_new and
 * v_new become final, into a running max that a tie never replaces.  On a
 * finite state every term is >= +0 for chi > 0, or inf on overflow, so that
 * max is the same bits as numpy's, whatever the order.  A nan is not, so when
 * the finite checks find an inf or nan entry, speed_bound_ref decides.
 *
 * u_new and v_new must not overlap u, v, d, e or t. */
void imex_step(const double *restrict u, const double *restrict v, long n, double flux_w,
               double diff_w, double a, double *restrict d, double *restrict e,
               const double *restrict t, long k, double d_plus, double dv_w, double chi,
               double *restrict u_new, double *restrict v_new, double *restrict checks)
{
    const long m = n - 2; /* interior row i is node i + 1 */
    const double e_plus = k < 0 ? 0.0 : -a / d_plus;
    const double left = u[0], right = u[n - 1];

    /* forward sweep; w_lo and w_hi are u*v at the nodes j - 1 and j + 1 */
    double w_lo = u[0] * v[0], w_mid = u[1] * v[1], w_hi = u[2] * v[2];
    double x = node_rhs(u, w_lo, w_hi, 1, flux_w, diff_w) + a * left; /* row 0 */
    u_new[1] = x;
    for (long j = 2; j <= m; j++) {
        w_lo = w_mid;
        w_mid = w_hi;
        w_hi = u[j + 1] * v[j + 1];
        double r = node_rhs(u, w_lo, w_hi, j, flux_w, diff_w);
        if (j == m)
            r = r + a * right;
        const long i = j - 2; /* node j's row is i + 1 */
        if (i < k) {
            d[i] = (t[i + 1] / t[i]) * d_plus;
            e[i] = -a / d[i];
        } else if (k >= 0) {
            d[i] = d_plus;
            e[i] = e_plus;
        }
        x = r - x * e[i];
        u_new[j] = x;
    }
    if (k >= 0)
        d[m - 1] = m - 1 < k ? (t[m] / t[m - 1]) * d_plus : d_plus;

    /* back sweep, with v_new one node behind, the finite checks and the bound */
    const double c4 = 4.0 * chi;
    u_new[0] = left;
    u_new[n - 1] = right;
    x = x / d[m - 1];
    u_new[m] = x;
    double above = right; /* u_new at the node above x */
    double u_min = left < right ? left : right;
    u_min = x < u_min ? x : u_min;
    double u_sum = left * 0.0 + right * 0.0 + x * 0.0; /* nan when any u_new is inf or nan */
    double v_sum = v[0] * 0.0 + v[n - 1] * 0.0;
    double top = 0.0; /* the largest bound term */
    for (long j = m - 1; j >= 1; j--) {
        const double y = u_new[j] / d[j - 1] - x * e[j - 1];
        u_new[j] = y;
        const double vj = (above - y) * dv_w + v[j + 1];
        v_new[j + 1] = vj;
        u_sum += y * 0.0;
        u_min = y < u_min ? y : u_min;
        v_sum += vj * 0.0;
        top = max_term(top, speed_term(x, vj, chi, c4)); /* node j + 1 is final */
        above = x;
        x = y;
    }
    const double v1 = (above - left) * dv_w + v[1];
    v_new[1] = v1;
    v_sum += v1 * 0.0;
    top = max_term(top, speed_term(x, v1, chi, c4));
    top = max_term(top, speed_term(left, v[0], chi, c4));
    top = max_term(top, speed_term(right, v[n - 1], chi, c4));
    v_new[0] = v[0];
    v_new[n - 1] = v[n - 1];

    checks[0] = u_sum != 0.0 ? NAN : u_min;
    checks[1] = v_sum == 0.0;
    checks[2] = u_sum + v_sum != 0.0 ? speed_bound_ref(u_new, v_new, n, chi) : 0.5 * top;
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
