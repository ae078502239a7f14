"""The column store every constraint matrix of ``hydrosp`` is held in."""

import numpy as np


class SparseMatrix:
    """An m x n matrix stored column by column (compressed sparse column).

    Column j's nonzeros are entries ``start[j]:start[j + 1]`` of ``index``
    (their rows, ascending) and ``value``; every stored value is finite
    and nonzero, and no position repeats.  The arrays are read-only, so
    one matrix can be shared by many programs.  ``A @ x`` and ``y @ A``
    are ``np.bincount`` sums over the nonzeros in column order and return
    dense matrices for stacked vectors (the columns of an n x K ``x``, the
    rows of a K x m ``y``), each column or row summed in the same order as
    alone; one vector is the case K = 1 and gives a dense vector.
    ``dense()`` exports the full array for callers outside the solver
    stack.
    """

    __array_ufunc__ = None          # makes ``y @ A`` reach __rmatmul__

    def __init__(self, shape, start, index, value):
        self.shape = (int(shape[0]), int(shape[1]))
        self.start = start
        self.index = index
        self.value = value
        for a in (start, index, value):
            a.setflags(write=False)
        self._columns = None

    @classmethod
    def from_triplets(cls, shape, rows=(), cols=(), vals=()):
        """The matrix with entry ``(rows[k], cols[k]) = vals[k]`` for each
        k; values must be finite, zeros are dropped, no position repeats."""
        m, n = shape
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not rows.shape == cols.shape == vals.shape:
            raise ValueError("triplet arrays differ in length")
        if not np.all(np.isfinite(vals)):
            raise ValueError("triplet values must be finite")
        if rows.size and not (0 <= rows.min() and rows.max() < m
                              and 0 <= cols.min() and cols.max() < n):
            raise ValueError(f"triplet outside a {m}x{n} matrix")
        keep = vals != 0.0
        order = np.lexsort((rows[keep], cols[keep]))
        rows = rows[keep][order]
        cols = cols[keep][order]
        if np.any((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])):
            raise ValueError("a matrix position appears twice")
        return cls(shape, _starts(np.bincount(cols, minlength=n)), rows,
                   vals[keep][order])

    @classmethod
    def from_dense(cls, A, name="A"):
        """The store of a finite 2-d ``A``; messages call it ``name``."""
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2:
            raise ValueError(f"{name} must be 2-dimensional")
        cols, rows = np.nonzero(A.T)    # column-major order of A
        value = A[rows, cols]           # NaN and inf are nonzero, so here
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")
        return cls(A.shape, _starts(np.bincount(cols, minlength=A.shape[1])),
                   rows, value)

    @classmethod
    def hstack(cls, blocks):
        """``[B_1 | B_2 | ...]`` of matrices with one row count."""
        m = blocks[0].shape[0]
        if any(B.shape[0] != m for B in blocks):
            raise ValueError("blocks differ in row count")
        start, nnz = [], 0
        for B in blocks:
            start.append(B.start[:-1] + nnz)
            nnz += B.nnz
        start.append([nnz])
        return cls((m, sum(B.shape[1] for B in blocks)), np.concatenate(start),
                   np.concatenate([B.index for B in blocks]),
                   np.concatenate([B.value for B in blocks]))

    @property
    def nnz(self):
        return self.index.size

    def columns(self):
        """The column of each stored entry (computed once, read-only)."""
        if self._columns is None:
            cols = np.repeat(np.arange(self.shape[1]), np.diff(self.start))
            cols.setflags(write=False)
            self._columns = cols
        return self._columns

    def triplets(self):
        return self.index, self.columns(), self.value

    def take(self, cols):
        """The m x len(cols) matrix of the columns ``cols``."""
        first = self.start[cols]
        counts = self.start[np.add(cols, 1)] - first
        start = _starts(counts)
        k = np.repeat(first - start[:-1], counts) + np.arange(start[-1])
        return SparseMatrix((self.shape[0], len(counts)), start,
                            self.index[k], self.value[k])

    def __matmul__(self, x):
        x = np.asarray(x)
        K, m = (x.shape[1] if x.ndim == 2 else 1), self.shape[0]
        # entry e of column k lands in the flat bin k * m + index[e], so
        # each bin sums the entries of one row in column order
        bins = self.index
        if K != 1:
            bins = (np.arange(K)[:, None] * m + bins).ravel()
        w = np.repeat(x.T, np.diff(self.start), axis=-1) * self.value
        out = np.bincount(bins, weights=w.ravel(), minlength=K * m)
        return out.reshape(K, m).T if x.ndim == 2 else out

    def __rmatmul__(self, y):
        y = np.asarray(y)
        K, n = (len(y) if y.ndim == 2 else 1), self.shape[1]
        # the K rows of y, binned as in __matmul__
        bins = self.columns()
        if K != 1:
            bins = (np.arange(K)[:, None] * n + bins).ravel()
        w = y.T[self.index].T * self.value      # y[..., index], but faster
        out = np.bincount(bins, weights=w.ravel(), minlength=K * n)
        return out.reshape(K, n) if y.ndim == 2 else out

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.shape == other.shape
                and np.array_equal(self.start, other.start)
                and np.array_equal(self.index, other.index)
                and np.array_equal(self.value, other.value))

    __hash__ = None

    def dense(self):
        out = np.zeros(self.shape)
        rows, cols, vals = self.triplets()
        out[rows, cols] = vals
        return out


def _starts(counts):
    """Column starts of columns with ``counts`` entries each."""
    start = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=start[1:])
    return start
