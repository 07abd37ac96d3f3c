"""The benchmark's tracer and workloads bind library functions by name.

`bench/spans.py` wraps every `(module, function)` in `LAYERS` through
`getattr`, and its counters read `.rows`/`.cols` of the matrices those
functions take or return and `.mask` off the keys of `SetFunction.coeffs`,
the `Subset`-keyed view of a function's int-mask `terms`.
`bench/workloads.py` builds `SetFamily`/`Subset` families for `tau` and
reads `.mask` off its witness.  These tests fail when a rename, deletion or
key change in the library would break `bench/run.py`, traced or not; they
read `bench/` and do not change it.
"""

import importlib
import importlib.util
import os
import sys
from collections import Counter

from agealgebra.linalg import IntMatrix, matmul, nullspace_basis, rank
from agealgebra.setfuncs import mult_matrix, product, product_by_splits, singleton_ones
from agealgebra.witnesses import gadget_lower

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    # Registered before it runs, as dataclasses look their module up.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    for module, func, _, _ in load_bench("spans").LAYERS:
        owner = importlib.import_module(f"agealgebra.{module}")
        assert callable(getattr(owner, func, None)), f"{module}.{func}"


def test_matrix_counters_read_rows_and_cols():
    spans = load_bench("spans")
    f = singleton_ones(4)
    op = mult_matrix(f, 1)
    assert (op.matrix.rows, op.matrix.cols) == (6, 4)
    st = Counter()
    spans._mult_matrix(st, (f, 1), {}, op)
    spans._matrix_cells(st, (op.matrix,), {}, rank(op.matrix))
    spans._nullspace_basis(st, (op.matrix,), {}, nullspace_basis(op.matrix))
    t = IntMatrix([list(col) for col in zip(*op.matrix.nums)], op.matrix.rows)
    spans._matmul(st, (t, op.matrix), {}, matmul(t, op.matrix))
    assert st == Counter(cells=3 * 24, kernel_dim=0, mults=4 * 6 * 4)


def test_product_counters_read_the_keys_of_a_real_pair():
    spans = load_bench("spans")
    pair = gadget_lower(2, 2)
    st = Counter()
    spans._product_by_splits(st, (pair.f, pair.g), {}, product_by_splits(pair.f, pair.g))
    spans._product(st, (pair.f, pair.g), {}, product(pair.f, pair.g))
    # C(8, 4) sets; 32 disjoint unions; 16 x 12 support pairs.
    assert st == Counter(sets=70, useful=32, pairs=16 * 12)
    for f in (pair.f, pair.g):
        assert {s.mask: v for s, v in f.coeffs.items()} == f.terms
        assert f.support().masks() == sorted(f.terms)


def test_tau_op_checks_a_real_witness():
    workloads = load_bench("workloads")
    pair = gadget_lower(2, 2)
    family = pair.f.support().union(pair.g.support())
    op = workloads._tau_op("tau gadget(2,2)", family, 7)
    result = op.run()
    assert op.check(result)
    assert not workloads._tau_op("tau gadget(2,2)", family, 8).check(result)


def test_certify_tau_ops_pass_their_checks(tmp_path):
    workloads = load_bench("workloads")
    ops = workloads.prepare("certify", workloads.generate("certify", 1), str(tmp_path))
    taus = [op for op in ops if op.name.startswith("tau ")]
    assert len(taus) == 6
    assert all(op.check(op.run()) for op in taus)
