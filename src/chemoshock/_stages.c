/* The compiled loops of chemoshock: one step of solver._advance and the
 * snapshot printer of core.write_snapshot.  _native.py compiles this file
 * into a shared library on first use and loads it through ctypes; the numpy
 * stages and the Python snapshot writer are the reference, and the fallback
 * when it does not build.  A run takes its first speed bound from numpy
 * (solver._speed_bound) and every later one from imex_step; the format_value
 * export is called only by the tests.  The printer is compiled only where
 * the compiler has 128-bit integers, and _native.py finds it by its
 * format_rows export.
 *
 * The step is one call of two sweeps of a δ-form solve, u_new = u + δ, on
 * blocks of rows around the right-hand side's nonzero entries: the forward
 * sweep computes the right-hand side as it goes, finds the blocks and runs
 * their forward sweeps; the back sweep finishes δ, adds u, updates v one
 * node behind the solve, runs the finite checks and takes the next step's
 * speed bound, which solver carries to the next step (nan for a step that
 * fails the checks).  The factor is stored up to its head only, the row from
 * which it repeats, and the sweeps read that row for every later one.  Each
 * stage inside it does the IEEE operations of its numpy stage, in the same
 * order, so the results are the same bytes; only the speed bound meets its
 * terms in another order, which gives the same max (see imex_step).  For
 * a > A_MAX the pivots take their closed form on libm's expm1 and log1p,
 * which Python's math module calls too.  That needs a build that fuses no
 * multiply-add and reassociates nothing: -ffp-contract=off, and no
 * -ffast-math.  -fno-math-errno only lets sqrt compile to one instruction.
 *
 * Where |δ| < DEAD_BAND*|u| the back sweep keeps u, as the numpy stages do,
 * so that roundoff does not travel along a plateau (see solver).  So a far
 * field keeps its bits, and the step sweeps only the rows between the two
 * far-field plateaus that provably keep them, g = block_margin rows and a
 * few more inside each plateau's edge (see imex_step).
 *
 * Arrays are contiguous doubles; n is the node count (n >= 4) and m = n - 2
 * the interior count.
 *
 * The numbers this file shares with Python are defined once, in _native.py,
 * whose build passes each as a -D macro: A_MAX, LOG_QUARTER_EPS, BLOCK_BITS,
 * DEAD_BAND, POW10_MIN, POW10_MAX and VALUE_BYTES.  This file defines none.
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

/* The explicit right-hand side of the δ-form at node j, with w_lo = u[j-1]*v[j-1],
 * w_hi = u[j+1]*v[j+1] and lap_w = diff_w + a: solver._explicit_rhs. */
static inline double node_rhs(const double *u, double w_lo, double w_hi, long j, double flux_w,
                              double lap_w)
{
    return (w_hi - w_lo) * flux_w + ((u[j + 1] + u[j - 1]) - 2.0 * u[j]) * lap_w;
}

/* The closed form of the pivots d of tridiag(-a, 1+2a, -a) of size m and the
 * entries e_i = -a/d_i of its unit factor, for a > A_MAX: solver._ldl_pivots
 * there, on the same libm functions as Python's math module.  With
 * d_plus = (1+2a+sqrt(1+4a))/2 and log q = -2*log1p((1+sqrt(1+4a))/(2a)),
 * pivot i is (t_(i+1)/t_i)*d_plus, t_i = expm1(log q*(i+1)), for i below the
 * head length k, and d_plus from k on.  It stores rows 0 .. min(k, m - 1)
 * only and returns min(k, m - 1), as _ldl_pivots does: every later pivot is
 * d_plus, and every later e is -a/d_plus. */
static long ldl_closed(double a, long m, double *restrict d, double *restrict e)
{
    const double s = sqrt(1.0 + 4.0 * a);
    const double d_plus = 0.5 * (1.0 + 2.0 * a + s);
    const double log_q = -2.0 * log1p(0.5 * (1.0 + s) / a);
    const double head = LOG_QUARTER_EPS / log_q;
    long k = head < (double)m ? (long)head + 2 : m;
    if (k > m)
        k = m;
    const long last = k < m ? k : m - 1;
    double t = expm1(log_q);
    for (long i = 0; i <= last; i++) {
        if (i < k) {
            const double t_next = expm1(log_q * (double)(i + 2));
            d[i] = (t_next / t) * d_plus;
            t = t_next;
        } else {
            d[i] = d_plus;
        }
        if (i < m - 1)
            e[i] = -a / d[i];
    }
    return last;
}

/* The head of the factor for a <= A_MAX (solver._ldl_pivots): the pivots
 * d_0 = 1 + 2a, d_(i+1) = (1 + 2a) + a*e_i with e_i = -a/d_i (the bits of
 * (1 + 2a) - a*(a/d_i)) until a pivot repeats, at row k, which it returns.
 * It stores rows 0 .. k only: every later pivot is d[k] and every later e is
 * e[k]. */
static long ldl_head(double a, long m, double *restrict d, double *restrict e)
{
    const double b = 1.0 + 2.0 * a;
    double p = b;
    for (long i = 0; i < m - 1; i++) {
        d[i] = p;
        e[i] = -a / p;
        const double next = b + a * e[i];
        if (next == p)
            return i;
        p = next;
    }
    d[m - 1] = p;
    return m - 1;
}

/* Row i of a factor array stored up to row last, whose later rows all hold
 * row last's value. */
static inline double factor_row(const double *x, long i, long last)
{
    return x[i < last ? i : last];
}

/* solver._block_margin: the rows g that a block of the solve adds on each side
 * of its nonzero right-hand side, at most m.  rho = a/d is the factor by
 * which δ decays per row; from the bound rho^8 < 2^ex,
 * g = ceil(8*BLOCK_BITS/-ex) rows take it below 2^-BLOCK_BITS. */
static long block_margin(double rho, long m)
{
    if (rho == 0.0)
        return 0;
    const double p2 = rho * rho, p4 = p2 * p2, p8 = p4 * p4;
    if (p8 == 0.0)
        return 1;
    int ex;
    frexp(p8, &ex); /* rho^8 < 2^ex */
    if (ex >= 0)
        return m;
    const long g = (BLOCK_BITS * 8 - ex - 1) / -ex;
    return g < m ? g : m;
}

/* Whether x and y are the same 64 bits: == takes -0.0 for +0.0 and no nan
 * for itself. */
static inline int same_bits(double x, double y)
{
    uint64_t a, b;
    memcpy(&a, &x, sizeof a);
    memcpy(&b, &y, sizeof b);
    return a == b;
}

/* Whether a run of nodes with the bits of end state (u, v) provably keeps
 * them in a step with these weights.  At a node whose neighbours carry them
 * too, the right-hand side is (u*v - u*v)*flux_w + ((u + u) - 2*u)*lap_w = +-0
 * when u+u, u*v, flux_w and lap_w are finite; outside the blocks δ is that
 * +-0, and u + (+-0) = u for u > 0, whatever the dead band; and
 * (u - u)*dv_w + v = v for a finite dv_w and a finite v that is not -0.0
 * (-0.0 + +0.0 is +0.0). */
static int plateau_keeps(double u, double v, double flux_w, double lap_w, double dv_w)
{
    return u > 0.0 && isfinite(u + u) && isfinite(u * v) && !(v == 0.0 && signbit(v)) &&
           isfinite(flux_w) && isfinite(lap_w) && isfinite(dv_w);
}

/* The number of nodes from node end on, going by dir (+1 or -1), whose u and
 * v carry the bits of node end's: 1 up to most. */
static long plateau_length(const double *u, const double *v, long end, long dir, long most)
{
    long p = 1;
    while (p < most && same_bits(u[end + dir * p], u[end]) && same_bits(v[end + dir * p], v[end]))
        p++;
    return p;
}

/* x[from .. to-1] = value: one store, then each memcpy doubles the filled run,
 * since libc's memcpy stores whole vectors where a loop of doubles stores one
 * at a time. */
static void fill(double *x, long from, long to, double value)
{
    if (to <= from)
        return;
    x += from;
    const long count = to - from;
    x[0] = value;
    for (long done = 1; done < count; done *= 2)
        memcpy(x + done, x, (size_t)(count - done < done ? count - done : done) * sizeof *x);
}

/* What imex_step's back sweep carries from node to node: u_new at the two
 * nodes above the next one, min(u_new), the sums that turn nan when an entry
 * of u_new or v_new is inf or nan, and the largest bound term. */
struct back_sweep {
    double above, ux, u_min, u_sum, v_sum, top;
};

/* Node j of the back sweep, whose δ is y: u_new_j = u_j + y, or u_j when
 * |y| < DEAD_BAND*|u_j|, as solver._numpy_step; then node j + 1, whose
 * neighbours are final now, gets its v_new and its bound term. */
static inline void finish_node(struct back_sweep *bs, long j, double y, const double *u,
                               const double *v, double *u_new, double *v_new, long m,
                               double dv_w, double chi)
{
    const double uy = fabs(y) < DEAD_BAND * fabs(u[j]) ? u[j] : u[j] + y;
    u_new[j] = uy;
    bs->u_sum += uy * 0.0;
    bs->u_min = uy < bs->u_min ? uy : bs->u_min;
    if (j < m) {
        const double vj = (bs->above - uy) * dv_w + v[j + 1];
        v_new[j + 1] = vj;
        bs->v_sum += vj * 0.0;
        bs->top = max_term(bs->top, speed_term(bs->ux, vj, chi, 4.0 * chi));
        bs->above = bs->ux;
    }
    bs->ux = uy;
}

/* One step of solver._advance on the compiled path: its right-hand side,
 * solve and v update, its finite checks and the next step's speed bound, in
 * two sweeps over the grid.
 *
 * The step is in δ-form: it solves (I - a*Laplacian) δ = r and sets
 * u_new = u + δ, so a state that is constant near a node has r = 0 there and
 * keeps its bits.  It solves on blocks of rows only, as
 * solver._implicit_solve does: a block runs from g = block_margin rows before
 * a nonzero entry of r to g rows after one, blocks that touch are one, and
 * outside them δ = r, which is +-0.  What a block drops, the coupling across
 * its ends, is about a*2^-BLOCK_BITS of δ, and its sweeps end before δ
 * decays into the subnormal numbers, which cost ~100 cycles per multiply or
 * divide.  A block of k rows is tridiag(-a, 1+2a, -a) of size k, whose factor
 * is the first k rows of the full one.
 *
 * The step sweeps only the rows that can change.  A plateau is the run of p
 * nodes at an end whose u and v carry the end node's bits.  When its end
 * state passes plateau_keeps, r = +-0 on each row whose node and both
 * neighbours lie in it.  On the left that is rows 0 .. p-3, so no block
 * starts before row p-2-g, every earlier row has δ = +-0 and keeps u, and
 * v_new, which takes u_new at both neighbours, keeps v up to node p-3-g.  So
 * the rows from lo = p-3-g on can change; on the right, by the mirror
 * argument, the rows before hi = n-p+g+1.  The sweeps run over rows
 * [lo, hi); every node outside them takes its end node's u and v, and its
 * bound term is the end node's, which the bound takes anyway.  Nothing is
 * carried from one call to the next, and a state without such plateaus
 * (lo = 0, hi = m) is swept whole.
 *
 * The step stores the factor of a in d and e up to its head only: rows
 * 0 .. k, from ldl_closed for a > A_MAX, else from ldl_head, where k is the
 * row from which every pivot is d[k] and every e is e[k].  The sweeps read
 * row min(i, k) for row i, and min(i, k, m - 2) of e, which has m - 1 rows.
 *
 * The forward sweep computes each interior node's right-hand side
 *     r_i = (u_(i+1)*v_(i+1) - u_(i-1)*v_(i-1))*flux_w
 *           + ((u_(i+1) + u_(i-1)) - 2*u_i)*(diff_w + a)
 * as solver._explicit_rhs does, finds the blocks, and runs each block's
 * forward sweep of L*D*L^T δ = r, as LAPACK's dptts2 does for one right-hand
 * side; a block's rows before its first nonzero entry are swept when that
 * entry is met.  It keeps the blocks' first and last rows in runs, n doubles
 * of scratch.  The back sweep finishes each block's δ, sets u_new = u + δ,
 * or u where |δ| < DEAD_BAND*|u|, and, one node behind it,
 *     v_new_i = (u_new_(i+1) - u_new_(i-1))*dv_w + v_i
 * once both neighbours are final: solver._update_v.  The ends of u_new and
 * v_new, and their skipped nodes, take the end values of u and v.  The solve's
 * sweeps are chains of dependent multiply-subtracts that leave the other
 * execution ports idle, so the right-hand side, the v update and the bound
 * cost little inside them.
 *
 * checks[0] is min(u_new), nan when any entry is not finite
 * (solver._finite_min); checks[1] is 1 when every v_new is finite, else 0;
 * checks[2] is solver._speed_bound(u_new, v_new), the next step's bound, or
 * nan when either finite check fails: solver._advance then raises before it
 * reads the bound.  The back sweep takes all three: each node's bound term
 * where its u_new and v_new become final, into a running max that a tie
 * never replaces.  On a finite state every term is >= +0 for chi > 0, or inf
 * on overflow, so that max is the same bits as numpy's, whatever the order.
 *
 * u_new, v_new and runs must not overlap u, v, d, e or each other. */
void imex_step(const double *restrict u, const double *restrict v, long n, double flux_w,
               double diff_w, double a, double *restrict d, double *restrict e, double dv_w,
               double chi, double *restrict u_new, double *restrict v_new,
               double *restrict checks, double *restrict runs)
{
    const long m = n - 2; /* interior row i is node i + 1 */
    /* the factor's last stored rows: of d, and of e */
    const long k = a > A_MAX ? ldl_closed(a, m, d, e) : ldl_head(a, m, d, e);
    const long ke = k < m - 2 ? k : m - 2;
    const long g = block_margin(-e[ke], m);

    /* the rows that can change, [lo, hi); the right plateau ends at the left
     * one, so that lo < hi also on a constant state */
    const double lap_w = diff_w + a;
    long lo = 0, hi = m, p_left = 0;
    if (plateau_keeps(u[0], v[0], flux_w, lap_w, dv_w)) {
        p_left = plateau_length(u, v, 0, 1, n);
        lo = p_left - 3 - g > 0 ? p_left - 3 - g : 0;
    }
    if (plateau_keeps(u[n - 1], v[n - 1], flux_w, lap_w, dv_w)) {
        const long p_right = plateau_length(u, v, n - 1, -1, n - p_left);
        hi = n - p_right + g + 1 < m ? n - p_right + g + 1 : m;
    }

    /* forward sweep: r into u_new, and δ in place of it on the rows of the
     * blocks; the block being found starts at row start, last is its last
     * nonzero row, and x is δ at the row before */
    long blocks = 0, start = -1, last = -1;
    double x = 0.0;
    double w_lo = u[lo] * v[lo], w_mid = u[lo + 1] * v[lo + 1];
    for (long i = lo; i < hi; i++) {
        const double w_hi = u[i + 2] * v[i + 2];
        const double r = node_rhs(u, w_lo, w_hi, i + 1, flux_w, lap_w);
        w_lo = w_mid;
        w_mid = w_hi;
        if (r != 0.0) { /* a nan too */
            if (start >= 0 && i - last <= 2 * g + 1) { /* the rows since the margin, then i */
                for (long j = last + g + 1; j < i; j++) {
                    x = u_new[j + 1] - x * factor_row(e, j - start - 1, ke);
                    u_new[j + 1] = x;
                }
                x = r - x * factor_row(e, i - start - 1, ke);
            } else { /* a new block: its rows before i hold r */
                if (start >= 0) {
                    runs[2 * blocks] = (double)start;
                    runs[2 * blocks + 1] = (double)(last + g);
                    blocks++;
                }
                start = i > g ? i - g : 0;
                x = r;
                if (start < i) {
                    x = u_new[start + 1];
                    for (long j = start + 1; j < i; j++) {
                        x = u_new[j + 1] - x * factor_row(e, j - start - 1, ke);
                        u_new[j + 1] = x;
                    }
                    x = r - x * factor_row(e, i - start - 1, ke);
                }
            }
            last = i;
        } else if (start >= 0 && i <= last + g) { /* the block's margin */
            x = r - x * factor_row(e, i - start - 1, ke);
        } else { /* outside the blocks: δ = r */
            u_new[i + 1] = r;
            continue;
        }
        u_new[i + 1] = x;
    }
    if (start >= 0) {
        runs[2 * blocks] = (double)start;
        runs[2 * blocks + 1] = (double)(m - 1 - last > g ? last + g : m - 1);
        blocks++;
    }

    /* back sweep over the nodes of rows [lo, hi): the nodes above block b,
     * where δ = r, then its rows from t down to s, where y is δ; bs carries
     * the rest, and the nodes above hi carry the bits of u[n - 1] */
    const double left = u[0], right = u[n - 1];
    struct back_sweep bs = {.above = right, .ux = right, .u_min = left < right ? left : right,
                            .u_sum = left * 0.0 + right * 0.0,
                            .v_sum = v[0] * 0.0 + v[n - 1] * 0.0, .top = 0.0};
    long j = hi; /* the next node to finish */
    for (long b = blocks - 1;; b--) {
        const long s = b >= 0 ? (long)runs[2 * b] : -1, t = b >= 0 ? (long)runs[2 * b + 1] : lo - 1;
        for (; j > t + 1; j--)
            finish_node(&bs, j, u_new[j], u, v, u_new, v_new, m, dv_w, chi);
        if (b < 0)
            break;
        double y = u_new[j] / factor_row(d, t - s, k);
        finish_node(&bs, j, y, u, v, u_new, v_new, m, dv_w, chi);
        for (j--; j > s; j--) {
            y = u_new[j] / factor_row(d, j - 1 - s, k) - y * factor_row(e, j - 1 - s, ke);
            finish_node(&bs, j, y, u, v, u_new, v_new, m, dv_w, chi);
        }
    }
    const double v1 = (bs.above - left) * dv_w + v[lo + 1];
    v_new[lo + 1] = v1;
    const double v_sum = bs.v_sum + v1 * 0.0;
    const double c4 = 4.0 * chi;
    double top = max_term(bs.top, speed_term(bs.ux, v1, chi, c4));
    top = max_term(top, speed_term(left, v[0], chi, c4));
    top = max_term(top, speed_term(right, v[n - 1], chi, c4));
    fill(u_new, 0, lo + 1, left);
    fill(v_new, 0, lo + 1, v[0]);
    fill(u_new, hi + 1, n, right);
    fill(v_new, hi + 1, n, v[n - 1]);

    checks[0] = bs.u_sum != 0.0 ? NAN : bs.u_min;
    checks[1] = v_sum == 0.0;
    checks[2] = bs.u_sum + v_sum != 0.0 ? NAN : 0.5 * top;
}

/* The snapshot printer: each value exactly as Python's '%.17g' % value
 * writes it, that is correctly rounded to 17 significant digits, ties to even,
 * and laid out as %g does.  It needs 128-bit integers; without them the
 * library exports no format_rows, and core.write_snapshot keeps its Python
 * writer.
 *
 * For a finite x = m*2^e and k = floor(log10|x|), the digits are
 * D = round(|x|*10^s) with s = 16 - k.  pow10[s - POW10_MIN] holds 10^s as
 * P*2^q, P the 128-bit truncation, so the exact product Y = m*P (192 bits)
 * puts |x|*10^s in [Y, Y + m)*2^(e+q).  When that interval leaves no doubt
 * about the rounding, D is final; when it holds the halfway point, or Y is
 * the halfway point itself (an exact tie), the C library's snprintf prints x
 * instead.  An estimate of k that leaves D outside [10^16, 10^17) is moved by
 * one and tried again (Gay 1990; Adams, "Ryu revisited", 2019). */

struct pow10 {
    uint64_t hi, lo; /* P = hi*2^64 + lo, 2^127 <= P < 2^128 */
    int64_t q;
};

#ifdef __SIZEOF_INT128__

typedef unsigned __int128 u128;

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

/* Writes x as '%.17g' % x into out, which holds VALUE_BYTES bytes (the text
 * takes at most 24, and snprintf adds a NUL), and returns the length of the
 * text, negated when snprintf wrote it. */
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
    return -snprintf(out, VALUE_BYTES, "%.17g", x);
}

/* g17, exported for the tests. */
int format_value(double x, const struct pow10 *pow10, char *out)
{
    return g17(x, pow10, out);
}

/* The rows 'x u v [c]' of a snapshot, each value as g17 writes it, into out,
 * which holds at least VALUE_BYTES bytes per value; c is NULL for three
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

#endif
