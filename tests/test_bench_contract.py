"""The benchmark's tracer binds library functions by name.

`bench/spans.py` wraps every `(module, function)` in `LAYERS` through
`getattr`, and its counters read `.rows`/`.cols` of the matrices those
functions take or return.  These tests fail when a rename or deletion in
the library would break `bench/run.py --trace 1`; they read `bench/` and
do not change it.
"""

import importlib
import importlib.util
import os
from collections import Counter

from agealgebra.linalg import matmul, nullspace_basis, rank
from agealgebra.setfuncs import mult_matrix, singleton_ones

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    for module, func, _, _ in load_spans().LAYERS:
        owner = importlib.import_module(f"agealgebra.{module}")
        assert callable(getattr(owner, func, None)), f"{module}.{func}"


def test_matrix_counters_read_rows_and_cols():
    spans = load_spans()
    f = singleton_ones(4)
    op = mult_matrix(f, 1)
    assert (op.matrix.rows, op.matrix.cols) == (6, 4)
    st = Counter()
    spans._mult_matrix(st, (f, 1), {}, op)
    spans._matrix_cells(st, (op.matrix,), {}, rank(op.matrix))
    spans._nullspace_basis(st, (op.matrix,), {}, nullspace_basis(op.matrix))
    t = op.matrix.transpose()
    spans._matmul(st, (t, op.matrix), {}, matmul(t, op.matrix))
    assert st == Counter(cells=3 * 24, kernel_dim=0, mults=4 * 6 * 4)
