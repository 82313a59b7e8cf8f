"""Kernel forms that make stacked arithmetic bit-identical to the per-unit kernels.

The block engine (``detectors._detect_block``) runs the sampler for many
trials along a leading array axis and must reproduce each trial's
per-unit ``Fabric`` arithmetic bit for bit.  On numpy/OpenBLAS that holds
only for particular forms, pinned here on small random inputs, so that a
numpy or BLAS change that breaks one fails a fast test with a clear
message rather than only the golden digests.
"""

from functools import reduce

import numpy as np
import pytest

T, C, B_C, U, M = 5, 4, 4, 8, 2  # the per-unit blocks of the fig3/fig4 presets are 4x8


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture(params=range(4))
def data(request):
    rng = np.random.default_rng(request.param)
    batch = np.sort(np.array([rng.choice(C, size=M, replace=False) for _ in range(T)]), axis=1)
    return _complex(rng, T, C, B_C, U), _complex(rng, T, C, B_C), _complex(rng, T, U), batch


def test_stacked_matvec_equals_per_unit_product(data):
    H, _, p, _ = data
    stacked = (H @ p[:, None, :, None])[..., 0]
    for t in range(T):
        for c in range(C):
            assert np.array_equal(stacked[t, c], H[t, c] @ p[t]), \
                "stacked H @ p differs from the per-unit H_c @ p"


def test_gathered_adjoint_view_equals_per_unit_adjoint(data):
    H, y, p, batch = data
    rows = np.arange(T)[:, None]
    r = y[rows, batch] - (H[rows, batch] @ p[:, None, :, None])[..., 0]
    gathered = (H.conj().swapaxes(-1, -2)[rows, batch] @ r[..., None])[..., 0]
    for t in range(T):
        for j, c in enumerate(batch[t]):
            assert np.array_equal(gathered[t, j], H[t, c].conj().T @ r[t, j]), \
                "a gather of the conj-swapaxes view differs from H_c.conj().T @ r"


def test_full_batch_reads_equal_gathered_reads(data):
    # with every unit in the batch the engine reads H, y and the adjoint view as they are;
    # the products must equal those of the gathered copies bit for bit
    H, y, p, _ = data
    rows, every = np.arange(T)[:, None], np.broadcast_to(np.arange(C), (T, C))
    adjoint = H.conj().swapaxes(-1, -2)
    r = y - (H @ p[:, None, :, None])[..., 0]
    r_gathered = y[rows, every] - (H[rows, every] @ p[:, None, :, None])[..., 0]
    assert np.array_equal(r, r_gathered), "ungathered H @ p differs from the gathered one"
    assert np.array_equal((adjoint @ r[..., None])[..., 0],
                          (adjoint[rows, every] @ r[..., None])[..., 0]), \
        "the ungathered adjoint view differs from the gathered one"


def test_adjoint_keeps_transposed_layout(data):
    # a C-contiguous copy of the adjoint is a different BLAS call (and differs in its last
    # bits on common builds); the view must keep the layout of H_c.conj().T
    H, _, _, batch = data
    gathered = H.conj().swapaxes(-1, -2)[np.arange(T)[:, None], batch]
    assert gathered[0, 0].strides == H[0, 0].conj().T.strides
    assert not gathered[0, 0].flags.c_contiguous


def test_stacked_rhr_equals_vdot(data):
    H, y, p, _ = data
    r = y - (H @ p[:, None, :, None])[..., 0]
    stacked = (r.conj()[..., None, :] @ r[..., None])[..., 0, 0].real
    for t in range(T):
        for c in range(C):
            assert stacked[t, c] == np.real(np.vdot(r[t, c], r[t, c])), \
                "stacked r^H r differs from np.vdot(r, r)"


def test_ascending_unit_sums_are_kept(data):
    # the collectives add one unit at a time in ascending order; the engine's
    # reduce over the unit axis must add in the same order, not pairwise
    H, _, _, _ = data
    terms = H[:, :, 0, :]  # (T, C, U)
    total = terms[:, 0].copy()
    for c in range(1, C):
        total += terms[:, c]
    assert np.array_equal(reduce(np.add, terms.swapaxes(0, 1)), total)
    real = terms.real[..., 0]
    scalar = real[:, 0].copy()
    for c in range(1, C):
        scalar += real[:, c]
    assert np.array_equal(reduce(np.add, real.T), scalar)
