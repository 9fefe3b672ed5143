/* Dtype-templated max-log-MAP SISO kernel body.
 *
 * Included twice by sisokernel.c with REAL / KERNEL_NAME defined to float /
 * double variants.  The algorithm mirrors the numpy reference backend
 * (repro/phy/turbo/backends/numpy_backend.py): plane-major flat branch
 * tables, batch-last (step-major, batch-inner) layout, per-step max
 * normalisation of the state metrics.  Every inner loop runs contiguously
 * over the column range [lo, hi) of the batch so gcc -O3 auto-vectorises it.
 *
 * Every add and multiply takes the numpy kernel's operands in the numpy
 * kernel's order (max is exact, so its grouping is free).  Built with
 * -ffp-contract=off (no fused multiply-add), the output is bit-identical to
 * the numpy backend's at the same dtype.
 */

#ifndef SISO_NEG_INF
/* Log-domain "impossible state" metric; matches backends.base.NEG_INF. */
#define SISO_NEG_INF -1e30
#endif

static int KERNEL_NAME(
    const REAL *restrict sys_t,   /* (k, batch) step-major systematic LLRs */
    const REAL *restrict par_t,   /* (k, batch) step-major parity LLRs */
    const REAL *restrict ap_t,    /* (k, batch) step-major a-priori LLRs */
    REAL *restrict app_t,         /* (k, batch) step-major APP output */
    const int32_t *restrict prev_flat,    /* (2S) predecessor state per fwd row */
    const REAL *restrict in_sign_fwd,     /* (2S) input sign per fwd row */
    const REAL *restrict par_sign_fwd,    /* (2S) parity sign per fwd row */
    const int32_t *restrict next_flat,    /* (2S) successor state per bwd row */
    const REAL *restrict par_sign_bwd,    /* (2S) parity sign per bwd row */
    Py_ssize_t batch,
    Py_ssize_t k,
    int num_states,
    int terminated_start,
    Py_ssize_t lo,
    Py_ssize_t hi)
{
    const Py_ssize_t w = hi - lo;
    const int s_count = num_states;
    if (w <= 0 || k <= 0 || s_count <= 0) {
        return 0;
    }

    /* One malloc per call: alphas (k+1, S, w), beta (S, w), gb planes
     * (2, S, w), c/hp/rowmax/best0/best1 (w each). */
    const size_t alphas_len = (size_t)(k + 1) * (size_t)s_count * (size_t)w;
    const size_t plane_len = (size_t)s_count * (size_t)w;
    const size_t total =
        alphas_len + plane_len + 2 * plane_len + 5 * (size_t)w;
    REAL *scratch = (REAL *)malloc(total * sizeof(REAL));
    if (scratch == NULL) {
        return -1;
    }
    REAL *restrict alphas = scratch;
    REAL *restrict beta = alphas + alphas_len;
    REAL *restrict gb = beta + plane_len; /* (2, S, w) branch+beta planes */
    REAL *restrict c = gb + 2 * plane_len;
    REAL *restrict hp = c + w;
    REAL *restrict rowmax = hp + w;
    REAL *restrict best0 = rowmax + w;
    REAL *restrict best1 = best0 + w;

    /* ---------------- forward recursion ---------------- */
    {
        REAL *restrict alpha0 = alphas;
        for (int s = 0; s < s_count; s++) {
            const REAL fill =
                (terminated_start && s != 0) ? (REAL)SISO_NEG_INF : (REAL)0.0;
            for (Py_ssize_t b = 0; b < w; b++) {
                alpha0[(Py_ssize_t)s * w + b] = fill;
            }
        }
    }
    for (Py_ssize_t t = 0; t < k; t++) {
        const REAL *restrict sys_row = sys_t + t * batch + lo;
        const REAL *restrict par_row = par_t + t * batch + lo;
        const REAL *restrict ap_row = ap_t + t * batch + lo;
        for (Py_ssize_t b = 0; b < w; b++) {
            c[b] = (REAL)0.5 * (sys_row[b] + ap_row[b]);
            hp[b] = (REAL)0.5 * par_row[b];
        }
        const REAL *restrict alpha = alphas + t * (Py_ssize_t)s_count * w;
        REAL *restrict nxt = alphas + (t + 1) * (Py_ssize_t)s_count * w;
        for (int s = 0; s < s_count; s++) {
            /* The two predecessor candidates of target state s live in the
             * two planes of the flat forward layout (rows s and S + s). */
            const REAL *restrict a0 = alpha + (Py_ssize_t)prev_flat[s] * w;
            const REAL *restrict a1 =
                alpha + (Py_ssize_t)prev_flat[s_count + s] * w;
            const REAL is0 = in_sign_fwd[s];
            const REAL ps0 = par_sign_fwd[s];
            const REAL is1 = in_sign_fwd[s_count + s];
            const REAL ps1 = par_sign_fwd[s_count + s];
            REAL *restrict out_row = nxt + (Py_ssize_t)s * w;
            for (Py_ssize_t b = 0; b < w; b++) {
                const REAL m0 = a0[b] + (c[b] * is0 + hp[b] * ps0);
                const REAL m1 = a1[b] + (c[b] * is1 + hp[b] * ps1);
                out_row[b] = m0 > m1 ? m0 : m1;
            }
        }
        /* Per-step normalisation by the per-column state maximum. */
        for (Py_ssize_t b = 0; b < w; b++) {
            rowmax[b] = nxt[b];
        }
        for (int s = 1; s < s_count; s++) {
            const REAL *restrict row = nxt + (Py_ssize_t)s * w;
            for (Py_ssize_t b = 0; b < w; b++) {
                rowmax[b] = row[b] > rowmax[b] ? row[b] : rowmax[b];
            }
        }
        for (int s = 0; s < s_count; s++) {
            REAL *restrict row = nxt + (Py_ssize_t)s * w;
            for (Py_ssize_t b = 0; b < w; b++) {
                row[b] -= rowmax[b];
            }
        }
    }

    /* ------------- backward recursion + APP output ------------- */
    for (Py_ssize_t i = 0; i < (Py_ssize_t)plane_len; i++) {
        beta[i] = (REAL)0.0;
    }
    for (Py_ssize_t t = k - 1; t >= 0; t--) {
        const REAL *restrict sys_row = sys_t + t * batch + lo;
        const REAL *restrict par_row = par_t + t * batch + lo;
        const REAL *restrict ap_row = ap_t + t * batch + lo;
        for (Py_ssize_t b = 0; b < w; b++) {
            c[b] = (REAL)0.5 * (sys_row[b] + ap_row[b]);
            hp[b] = (REAL)0.5 * par_row[b];
        }
        const REAL *restrict alpha = alphas + t * (Py_ssize_t)s_count * w;
        for (Py_ssize_t b = 0; b < w; b++) {
            best0[b] = (REAL)SISO_NEG_INF;
            best1[b] = (REAL)SISO_NEG_INF;
        }
        for (int u = 0; u < 2; u++) {
            const REAL isg = (u == 0) ? (REAL)1.0 : (REAL)-1.0;
            REAL *restrict best = (u == 0) ? best0 : best1;
            REAL *restrict gb_plane = gb + (Py_ssize_t)u * plane_len;
            for (int s = 0; s < s_count; s++) {
                const int row_index = u * s_count + s;
                const REAL *restrict beta_next =
                    beta + (Py_ssize_t)next_flat[row_index] * w;
                const REAL psg = par_sign_bwd[row_index];
                const REAL *restrict alpha_row = alpha + (Py_ssize_t)s * w;
                REAL *restrict gb_row = gb_plane + (Py_ssize_t)s * w;
                for (Py_ssize_t b = 0; b < w; b++) {
                    const REAL branch = c[b] * isg + hp[b] * psg;
                    /* (alpha + branch) + beta_next: the numpy kernel's
                     * operation order, which keeps the APPs bit-exact. */
                    const REAL metric = (alpha_row[b] + branch) + beta_next[b];
                    gb_row[b] = branch + beta_next[b];
                    best[b] = metric > best[b] ? metric : best[b];
                }
            }
        }
        REAL *restrict app_row = app_t + t * batch + lo;
        for (Py_ssize_t b = 0; b < w; b++) {
            app_row[b] = best0[b] - best1[b];
        }
        /* beta update: max over inputs of (branch + beta_next), normalised. */
        const REAL *restrict gb0 = gb;
        const REAL *restrict gb1 = gb + plane_len;
        for (Py_ssize_t i = 0; i < (Py_ssize_t)plane_len; i++) {
            beta[i] = gb0[i] > gb1[i] ? gb0[i] : gb1[i];
        }
        for (Py_ssize_t b = 0; b < w; b++) {
            rowmax[b] = beta[b];
        }
        for (int s = 1; s < s_count; s++) {
            const REAL *restrict row = beta + (Py_ssize_t)s * w;
            for (Py_ssize_t b = 0; b < w; b++) {
                rowmax[b] = row[b] > rowmax[b] ? row[b] : rowmax[b];
            }
        }
        for (int s = 0; s < s_count; s++) {
            REAL *restrict row = beta + (Py_ssize_t)s * w;
            for (Py_ssize_t b = 0; b < w; b++) {
                row[b] -= rowmax[b];
            }
        }
    }

    free(scratch);
    return 0;
}

#undef KERNEL_NAME
#undef REAL
