/* CPython extension module for the native max-log-MAP SISO kernel.
 *
 * Exposes one function, ``siso``, operating on contiguous step-major
 * (block, batch) float32/float64 buffers passed via the buffer protocol —
 * no numpy C API, so the module is insensitive to the numpy ABI it is run
 * against.  These are the decoder's own arrays: nothing is copied or
 * transposed on the way in or out.  The hot loop releases the GIL.  The
 * module also exports STATES, the trellis state count the kernel is built
 * for.
 *
 * See sisokernel_impl.h for the kernel body; the Python-side contract
 * (argument shapes, table layouts) lives in
 * repro/phy/turbo/backends/native_backend.py.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stdlib.h>

/* On x86-64, build each kernel twice — for AVX2 and for the baseline ISA —
 * and let the loader's ifunc resolver pick the clone this CPU runs, so one
 * binary uses 4-lane (double) / 8-lane (float) vectors where the CPU has
 * them and 2/4-lane SSE2 elsewhere.  The clones stay exact: "avx2" does not
 * enable FMA and -ffp-contract=off forbids contraction in every clone, so
 * each lane performs the scalar loop's IEEE adds, multiplies and compares.
 * Elsewhere (or without the attribute) SISO_CLONES expands to nothing. */
#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define SISO_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef SISO_CLONES
#define SISO_CLONES
#endif

#define REAL float
#define KERNEL_NAME siso_kernel_f32
#include "sisokernel_impl.h"

#define REAL double
#define KERNEL_NAME siso_kernel_f64
#include "sisokernel_impl.h"

/* Release every acquired buffer (entries with buf == NULL are skipped). */
static void release_buffers(Py_buffer *views, int count)
{
    for (int i = 0; i < count; i++) {
        if (views[i].buf != NULL) {
            PyBuffer_Release(&views[i]);
        }
    }
}

static int check_len(Py_buffer *view, size_t expected, const char *name)
{
    if ((size_t)view->len < expected) {
        PyErr_Format(
            PyExc_ValueError,
            "buffer %s too small: %zd bytes, expected at least %zu",
            name, view->len, expected);
        return -1;
    }
    return 0;
}

static PyObject *siso(PyObject *self, PyObject *args)
{
    Py_buffer views[9];
    Py_ssize_t k, batch;
    int num_states, terminated_start, is_double;

    for (int i = 0; i < 9; i++) {
        views[i].buf = NULL;
    }
    /* sys, par, ap (read-only), app (writable), prev_flat, in_sign_fwd,
     * par_sign_fwd, next_flat, par_sign_bwd, then the scalar geometry.
     * The dtype flag is explicit because "y*" exports a PyBUF_SIMPLE view
     * whose itemsize is always 1 — it cannot be inferred from the buffer. */
    if (!PyArg_ParseTuple(
            args, "y*y*y*w*y*y*y*y*y*nnipp",
            &views[0], &views[1], &views[2], &views[3], &views[4],
            &views[5], &views[6], &views[7], &views[8],
            &k, &batch, &num_states, &terminated_start, &is_double)) {
        return NULL;
    }

    if (batch < 0 || k <= 0) {
        release_buffers(views, 9);
        PyErr_SetString(PyExc_ValueError, "inconsistent kernel geometry");
        return NULL;
    }
    if (num_states != SISO_STATES) {
        release_buffers(views, 9);
        PyErr_Format(
            PyExc_ValueError, "the kernel is built for %d trellis states, got %d",
            SISO_STATES, num_states);
        return NULL;
    }
    const size_t real_size = is_double ? sizeof(double) : sizeof(float);
    const size_t matrix_bytes = (size_t)k * (size_t)batch * real_size;
    const size_t table_bytes = 2 * (size_t)num_states * real_size;
    const size_t index_bytes = 2 * (size_t)num_states * sizeof(int32_t);
    if (check_len(&views[0], matrix_bytes, "sys") < 0 ||
        check_len(&views[1], matrix_bytes, "par") < 0 ||
        check_len(&views[2], matrix_bytes, "apriori") < 0 ||
        check_len(&views[3], matrix_bytes, "app") < 0 ||
        check_len(&views[4], index_bytes, "prev_flat") < 0 ||
        check_len(&views[5], table_bytes, "in_sign_fwd") < 0 ||
        check_len(&views[6], table_bytes, "par_sign_fwd") < 0 ||
        check_len(&views[7], index_bytes, "next_flat") < 0 ||
        check_len(&views[8], table_bytes, "par_sign_bwd") < 0) {
        release_buffers(views, 9);
        return NULL;
    }
    /* The kernel follows these tables to state planes unchecked. */
    const int32_t *prev_flat = (const int32_t *)views[4].buf;
    const int32_t *next_flat = (const int32_t *)views[7].buf;
    for (int r = 0; r < 2 * SISO_STATES; r++) {
        if (prev_flat[r] < 0 || prev_flat[r] >= SISO_STATES ||
            next_flat[r] < 0 || next_flat[r] >= SISO_STATES) {
            release_buffers(views, 9);
            PyErr_SetString(PyExc_ValueError, "trellis state index out of range");
            return NULL;
        }
    }

    int status;
    Py_BEGIN_ALLOW_THREADS
    if (is_double) {
        status = siso_kernel_f64(
            (const double *)views[0].buf, (const double *)views[1].buf,
            (const double *)views[2].buf, (double *)views[3].buf,
            prev_flat, (const double *)views[5].buf,
            (const double *)views[6].buf, next_flat,
            (const double *)views[8].buf,
            k, batch, terminated_start);
    } else {
        status = siso_kernel_f32(
            (const float *)views[0].buf, (const float *)views[1].buf,
            (const float *)views[2].buf, (float *)views[3].buf,
            prev_flat, (const float *)views[5].buf,
            (const float *)views[6].buf, next_flat,
            (const float *)views[8].buf,
            k, batch, terminated_start);
    }
    Py_END_ALLOW_THREADS

    release_buffers(views, 9);
    if (status != 0) {
        return PyErr_NoMemory();
    }
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"siso", siso, METH_VARARGS,
     "siso(sys, par, apriori, app, prev_flat, in_sign_fwd, par_sign_fwd, "
     "next_flat, par_sign_bwd, k, batch, num_states, terminated_start, "
     "is_double)\n\n"
     "Max-log-MAP SISO half-iteration over contiguous step-major\n"
     "(k, batch) LLR buffers.  All real-valued buffers must be\n"
     "float64 when is_double is true, float32 otherwise.  Releases the\n"
     "GIL while running."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    "_sisokernel",
    "Native (C) max-log-MAP SISO kernel for the turbo decoder.",
    -1,
    methods,
};

PyMODINIT_FUNC PyInit__sisokernel(void)
{
    PyObject *mod = PyModule_Create(&module);
    if (mod != NULL && PyModule_AddIntConstant(mod, "STATES", SISO_STATES) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
