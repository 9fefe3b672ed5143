/* CPython extension module for the native max-log-MAP SISO kernel.
 *
 * Exposes one function, ``siso``, operating on step-major (block, batch)
 * float32/float64 buffers passed via the buffer protocol — no numpy C API,
 * so the module is insensitive to the numpy ABI it is run against.  The
 * hot loop releases the GIL.  The Python wrapper decodes columns [0, batch)
 * of a workspace whose column stride (the ``batch`` argument here) may be
 * wider than the batch, which is why the entry point takes ``lo, hi``.
 *
 * See sisokernel_impl.h for the kernel body; the Python-side contract
 * (argument shapes, table layouts) lives in
 * repro/phy/turbo/backends/native_backend.py.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stdlib.h>

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
    Py_ssize_t batch, k, lo, hi;
    int num_states, terminated_start, is_double;

    for (int i = 0; i < 9; i++) {
        views[i].buf = NULL;
    }
    /* sys, par, ap (read-only), app (writable), prev_flat, in_sign_fwd,
     * par_sign_fwd, next_flat, par_sign_bwd, then the scalar geometry.
     * The dtype flag is explicit because "y*" exports a PyBUF_SIMPLE view
     * whose itemsize is always 1 — it cannot be inferred from the buffer. */
    if (!PyArg_ParseTuple(
            args, "y*y*y*w*y*y*y*y*y*nnipnnp",
            &views[0], &views[1], &views[2], &views[3], &views[4],
            &views[5], &views[6], &views[7], &views[8],
            &batch, &k, &num_states, &terminated_start, &lo, &hi,
            &is_double)) {
        return NULL;
    }

    if (batch <= 0 || k <= 0 || num_states <= 0 || lo < 0 || hi > batch ||
        lo > hi) {
        release_buffers(views, 9);
        PyErr_SetString(PyExc_ValueError, "inconsistent kernel geometry");
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

    int status;
    Py_BEGIN_ALLOW_THREADS
    if (is_double) {
        status = siso_kernel_f64(
            (const double *)views[0].buf, (const double *)views[1].buf,
            (const double *)views[2].buf, (double *)views[3].buf,
            (const int32_t *)views[4].buf, (const double *)views[5].buf,
            (const double *)views[6].buf, (const int32_t *)views[7].buf,
            (const double *)views[8].buf,
            batch, k, num_states, terminated_start, lo, hi);
    } else {
        status = siso_kernel_f32(
            (const float *)views[0].buf, (const float *)views[1].buf,
            (const float *)views[2].buf, (float *)views[3].buf,
            (const int32_t *)views[4].buf, (const float *)views[5].buf,
            (const float *)views[6].buf, (const int32_t *)views[7].buf,
            (const float *)views[8].buf,
            batch, k, num_states, terminated_start, lo, hi);
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
     "next_flat, par_sign_bwd, batch, k, num_states, terminated_start, lo, "
     "hi, is_double)\n\n"
     "Max-log-MAP SISO half-iteration over batch columns [lo, hi) of\n"
     "step-major (k, batch) LLR buffers.  All real-valued buffers must be\n"
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
    return PyModule_Create(&module);
}
