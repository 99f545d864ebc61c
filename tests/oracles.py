"""Oracles shared by several test modules, built on the package's
hook-tableau enumeration and hook-data reconstruction."""

from supergaudin.partitions import hook_tableau_contents, partition_from_hook_data


def hook_tableau_dimension(shape, m, n):
    """Total number of (m|n)-hook tableaux of the shape."""
    return sum(hook_tableau_contents(shape, m, n).values())


def hook_weight_to_partition(w, m, n):
    """Invert the super-side hook weight map (level ignored)."""
    rows = [w(2 * i) for i in range(1, m + 1)]
    cols = [w(2 * j - 1) for j in range(1, n + 1)]
    return partition_from_hook_data(m, n, rows, cols)
