"""Oracles shared by several test modules: hook-tableau counts and hook
data built on the package's partitions, and dense views of one-slot
tensor operators to compare the package's sparse core against."""

from supergaudin.partitions import hook_tableau_contents, partition_from_hook_data


def hook_tableau_dimension(shape, m, n):
    """Total number of (m|n)-hook tableaux of the shape."""
    return sum(hook_tableau_contents(shape, m, n).values())


def hook_weight_to_partition(w, m, n):
    """Invert the super-side hook weight map (level ignored)."""
    rows = [w(2 * i) for i in range(1, m + 1)]
    cols = [w(2 * j - 1) for j in range(1, n + 1)]
    return partition_from_hook_data(m, n, rows, cols)


def slot_act(tensor, gen, slot, w):
    """Dense block of gen^{(slot)} on the w-space of a tensor, read off its
    column-sparse ``slot_act_sparse`` block; (target weight, fresh matrix)
    or None."""
    sparse = tensor.slot_act_sparse(gen, slot, w)
    if sparse is None:
        return None
    target, nrows, cols = sparse
    block = [[0] * len(cols) for _ in range(nrows)]
    for c, entries in enumerate(cols):
        for r, val in entries:
            block[r][c] += val
    return target, block


def mat_scale(A, c):
    return [[c * a for a in row] for row in A]
