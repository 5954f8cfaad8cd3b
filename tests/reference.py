"""A plain-numpy reference for one cell's main-effect indices.

It takes a cell's base matrices A, B and (for owen) C in model space, as
``evaluation_set(model, kinds, n, spec).x`` holds them, and computes each
estimator's S_i the plain way: every mixed matrix is a fresh copy of its
base with one column replaced, D_hat is ``np.var`` (two-pass), and DLR
orders each input by ``np.argsort(kind="stable")`` and bins by a reshape.
It reads only ``model.f`` and ``model.analytic_f0``, and nothing of the
package's estimator, harness or sampling code, so a test that compares it
with the package checks the evaluation and reduction layers against code
that shares none of their shortcuts: not the column swap, the factor sweep,
the leaf sums nor the packed-key sort.
"""

import numpy as np


def mixed_outputs(model, base: np.ndarray, donor: np.ndarray) -> np.ndarray:
    """(d, n) outputs: row i is f at ``base`` with column i taken from ``donor``."""
    rows = []
    for i in range(base.shape[1]):
        x = base.copy()
        x[:, i] = donor[:, i]
        rows.append(model.f(x))
    return np.array(rows)


def default_bin_count(n: int) -> int:
    """M = 2^ceil(p/2) bins for N = 2^p."""
    p = n.bit_length() - 1
    assert n == 1 << p, "the default schedule needs N = 2^p"
    return 1 << -(-p // 2)


def dlr_partial_variances(x: np.ndarray, f_a: np.ndarray, bins: int) -> np.ndarray:
    """Each input's D_i: the variance of the means of ``bins`` equal bins of
    fA ordered by that input, ties in sample order."""
    n = len(f_a)
    d_i = []
    for column in x.T:
        ordered = f_a[np.argsort(column, kind="stable")]
        d_i.append(np.var(ordered.reshape(bins, n // bins).mean(axis=1)))
    return np.array(d_i)


def reference_indices(
    model, kinds, x: dict[str, np.ndarray], bin_count=None
) -> dict[str, np.ndarray]:
    """S_i of each estimator named in ``kinds`` on one cell, by name.

    ``x`` maps ``"a"``, ``"b"`` and, for owen, ``"c"`` to the cell's base
    matrices.  sobol and dlr divide by D_hat of fA alone, the others by
    D_hat of fA and fB joined.  DLR takes ``bin_count`` bins, or the
    default schedule of the cell's N without one.
    """
    a = x["a"]
    f_a = model.f(a)
    out = {}
    if "dlr" in kinds:
        bins = bin_count or default_bin_count(len(f_a))
        out["dlr"] = dlr_partial_variances(a, f_a, bins) / np.var(f_a)
    direct = [kind for kind in kinds if kind != "dlr"]
    if not direct:
        return out
    b = x["b"]
    f_b = model.f(b)
    f_ab = mixed_outputs(model, b, a)
    d_pooled = np.var(np.concatenate([f_a, f_b]))
    for kind in direct:
        if kind == "sobol":
            d_i = (f_a * f_ab).mean(axis=1) - f_a.mean() ** 2
            out[kind] = d_i / np.var(f_a)
            continue
        if kind == "sk":
            centred = f_a
        elif kind == "owen":
            centred = f_a - mixed_outputs(model, a, x["c"])
        else:
            centred = f_a - model.analytic_f0
        out[kind] = (centred * (f_ab - f_b)).mean(axis=1) / d_pooled
    return out
