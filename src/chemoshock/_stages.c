/* The per-step loops of chemoshock's IMEX stepper: one per stage of
 * solver._advance, and one for its finite checks.  solver.py compiles this file into a shared library on
 * first use and calls it through ctypes; its numpy stages are the reference.
 *
 * Each loop does the IEEE operations of its numpy stage, in the same order,
 * so the results are the same bytes.  That needs a build that fuses no
 * multiply-add and reassociates nothing: -ffp-contract=off, and no
 * -ffast-math.  -fno-math-errno only lets sqrt compile to one instruction.
 *
 * Arrays are contiguous doubles; n is the node count (n >= 4) and m = n - 2
 * the interior count.
 */

#include <math.h>

/* 0.5 * max_i (a_i + sqrt(4*chi*max(u_i, 0) + a_i*a_i)) with a_i = chi*|v_i|,
 * nan when any term is nan: solver._speed_bound. */
double speed_bound(const double *u, const double *v, long n, double chi)
{
    const double c4 = 4.0 * chi;
    double m = 0.0; /* every term is >= 0 or nan */
    for (long i = 0; i < n; i++) {
        const double a = chi * fabs(v[i]);
        const double p = u[i] < 0.0 ? 0.0 : u[i]; /* keeps a nan, as np.maximum does */
        const double r = sqrt(p * c4 + a * a) + a;
        if (r > m || r != r) /* once m is nan it stays nan */
            m = r;
    }
    return 0.5 * m;
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
 * solver._implicit_solve. */
void implicit_solve(double *b, long m, double a, double left, double right, const double *d,
                    const double *e)
{
    b[0] += a * left;
    b[m - 1] += a * right;
    for (long i = 1; i < m; i++)
        b[i] = b[i] - b[i - 1] * e[i - 1];
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
