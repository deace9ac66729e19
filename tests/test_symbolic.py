"""Unit tests for the symbolic (cost-only) array backend."""

import numpy as np
import pytest

from repro.backend import (
    NumericOps,
    SymbolicArray,
    SymbolicOps,
    asarray,
    is_symbolic,
)
from repro.machine import Machine, words_of


class TestConstruction:
    def test_shape_and_dtype(self):
        a = SymbolicArray((3, 4), np.float32)
        assert a.shape == (3, 4)
        assert a.dtype == np.float32
        assert a.size == 12
        assert a.ndim == 2

    def test_int_shape(self):
        assert SymbolicArray(5).shape == (5,)

    def test_negative_dim_rejected(self):
        with pytest.raises(ValueError):
            SymbolicArray((-1, 2))

    def test_like_drops_data(self):
        a = SymbolicArray.like(np.ones((2, 3), dtype=np.complex128))
        assert a.shape == (2, 3)
        assert a.dtype == np.complex128

    def test_words_of(self):
        assert words_of(SymbolicArray((3, 5))) == 15
        assert words_of([SymbolicArray(4), SymbolicArray((2, 2))]) == 8


class TestIndexing:
    def test_basic_slices(self):
        a = SymbolicArray((10, 6))
        assert a[2:5].shape == (3, 6)
        assert a[:, 1:4].shape == (10, 3)
        assert a[3:, :2].shape == (7, 2)
        assert a[::2, :].shape == (5, 6)

    def test_strided_1d(self):
        a = SymbolicArray((17,))
        assert a[3::5].shape == (3,)
        assert a[20::5].shape == (0,)

    def test_int_drops_axis(self):
        a = SymbolicArray((10, 6))
        assert a[0].shape == (6,)
        assert a[2, 3].shape == ()

    def test_int_out_of_bounds(self):
        with pytest.raises(IndexError):
            SymbolicArray((3,))[5]

    def test_boolean_mask(self):
        a = SymbolicArray((8, 3))
        mask = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=bool)
        assert a[mask].shape == (4, 3)
        assert a[mask, 1:].shape == (4, 2)

    def test_integer_array(self):
        a = SymbolicArray((8, 3))
        assert a[np.array([0, 5, 2])].shape == (3, 3)
        assert a[np.array([0, 5]), :].shape == (2, 3)

    def test_ix_style_pair(self):
        a = SymbolicArray((8, 6))
        idx = np.ix_(np.arange(3), np.arange(2))
        assert a[idx].shape == (3, 2)

    def test_setitem_is_noop(self):
        a = SymbolicArray((4, 4))
        a[1:3, :] = 7.0  # no storage, no error
        a[2, 1] = 1.0
        assert a.shape == (4, 4)

    def test_iteration_terminates(self):
        # Sequence protocols must hit IndexError like a real ndarray.
        assert len(list(SymbolicArray((3, 2)))) == 3


class TestArithmetic:
    def test_broadcasting(self):
        a = SymbolicArray((4, 1))
        b = SymbolicArray((1, 5))
        assert (a + b).shape == (4, 5)

    def test_scalar_ops(self):
        a = SymbolicArray((3, 3), np.float64)
        assert (2.0 * a).shape == (3, 3)
        assert (a / 3).dtype == np.float64

    def test_matmul(self):
        a = SymbolicArray((4, 6))
        b = SymbolicArray((6, 2))
        assert (a @ b).shape == (4, 2)
        v = SymbolicArray((4,))
        assert (v @ a).shape == (6,)
        assert (a.T @ v).shape == (6,)

    def test_matmul_mismatch(self):
        with pytest.raises(ValueError):
            SymbolicArray((4, 6)) @ SymbolicArray((5, 2))

    def test_dtype_promotion(self):
        a = SymbolicArray((2, 2), np.float64)
        b = SymbolicArray((2, 2), np.complex128)
        assert (a + b).dtype == np.complex128

    def test_transpose_conj(self):
        a = SymbolicArray((3, 5), np.complex128)
        assert a.T.shape == (5, 3)
        assert a.conj().shape == (3, 5)
        assert a.conj().T.shape == (5, 3)

    def test_no_value_access(self):
        a = SymbolicArray((2,))
        with pytest.raises(TypeError):
            bool(a)
        with pytest.raises(TypeError):
            float(a)

    def test_real_of_complex(self):
        a = SymbolicArray((3,), np.complex128)
        assert a.real.dtype == np.float64


class TestNumpyProtocols:
    def test_ufuncs(self):
        a = SymbolicArray((3, 4))
        assert np.add(a, a).shape == (3, 4)
        assert np.conjugate(a).shape == (3, 4)
        assert np.multiply.outer(SymbolicArray((3,)), SymbolicArray((5,))).shape == (3, 5)

    def test_vstack_concatenate(self):
        a = SymbolicArray((3, 4))
        b = SymbolicArray((2, 4))
        assert np.vstack([a, b]).shape == (5, 4)
        assert np.concatenate([a, b], axis=0).shape == (5, 4)
        assert np.concatenate([SymbolicArray(3), SymbolicArray(5)]).shape == (8,)

    def test_triu_diag(self):
        a = SymbolicArray((4, 4))
        assert np.triu(a).shape == (4, 4)
        assert np.triu(a, 1).shape == (4, 4)
        assert np.diag(a).shape == (4,)
        assert np.diag(SymbolicArray((4,))).shape == (4, 4)

    def test_reshape(self):
        a = SymbolicArray((4, 6))
        assert a.reshape(-1).shape == (24,)
        assert a.reshape(8, 3).shape == (8, 3)
        with pytest.raises(ValueError):
            a.reshape(5, 5)

    def test_unregistered_function_raises(self):
        with pytest.raises(TypeError):
            np.linalg.svd(SymbolicArray((3, 3)))

    def test_mixed_numeric_symbolic(self):
        a = SymbolicArray((3, 4))
        b = np.ones((3, 4))
        assert (a + b).shape == (3, 4)
        assert (b - a).shape == (3, 4)
        assert is_symbolic(b @ a.T)


class TestOps:
    def test_creation(self):
        so = SymbolicOps()
        assert so.zeros((2, 3)).shape == (2, 3)
        assert so.eye(4).shape == (4, 4)
        assert isinstance(NumericOps().zeros((2, 3)), np.ndarray)

    def test_numeric_rejects_symbolic(self):
        with pytest.raises(TypeError):
            NumericOps().asarray(SymbolicArray((2,)))

    def test_asarray_passthrough(self):
        a = SymbolicArray((2,))
        assert asarray(a) is a
        assert isinstance(asarray([1, 2]), np.ndarray)


class TestMachineBackend:
    def test_backend_attribute(self):
        assert Machine(2).backend == "numeric"
        assert Machine(2).concrete
        m = Machine(2, backend="symbolic")
        assert m.backend == "symbolic" and not m.concrete
        assert m.ops.zeros((2, 2)).shape == (2, 2)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            Machine(2, backend="magic")

    def test_symbolic_transfer_meters(self):
        m = Machine(2, backend="symbolic")
        m.transfer(0, 1, SymbolicArray((5, 5)))
        rep = m.report()
        assert rep.total_words_sent == 25
        assert rep.total_messages_sent == 1
