"""Right-to-erasure ("forget these keys") compliance pipeline.

A deletion LIST (Dataset of key values) propagates through every
table that references the key: matching rows are dropped, survivors
are rewritten as partitioned parquet, and an exact audit report
(rows_before / rows_deleted / rows_after per table) comes back — the
tombstone-propagation shape every governed data platform runs, here
as a streaming Ray Data pipeline.

Scale discipline: the drop is an anti ``stages.joins.lookup`` of the
deletion list (and the verification a semi one): below the broadcast
gate the key set ships once and every batch masks with an Arrow
probe; past it they are bucketed anti/semi joins — nothing
key-set-sized ever sits on the driver. Row counts come from parquet
FOOTERS (before: the input's own metadata path via ds.count();
after: the written files' metadata), so the audit costs no extra data
pass; ``verify=True`` adds one pruned read over the written output
asserting zero surviving matches — the compliance proof.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def _written_rows(out_dir: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(out_dir):
        for f in files:
            if f.endswith(".parquet"):
                total += pq.ParquetFile(
                    os.path.join(root, f)).metadata.num_rows
    return total


def forget_keys(tables, del_keys, out_dir: str, verify: bool = True):
    """``tables``: list of (name, Dataset, key_col). ``del_keys``:
    Dataset with one int64 column of keys to erase. Writes survivors
    to ``out_dir/<name>/`` and returns a pa.Table audit report
    (table_name, rows_before, rows_deleted, rows_after), sorted by
    table_name. See module docstring for the scale plan."""
    import ray.data as rd

    from tldr_ray.stages.joins import lookup

    kcol = del_keys.schema().names[0]
    dk = del_keys.groupby(kcol).count().select_columns([kcol]) \
        .materialize()

    names, before, after = [], [], []
    for name, ds, key in sorted(tables):
        n0 = ds.count()
        keys = dk.map_batches(lambda t, _key=key: t.rename_columns([_key]),
                              batch_format="pyarrow")
        dest = os.path.join(out_dir, name)
        lookup(ds, keys, key, "anti").write_parquet(dest)
        n1 = _written_rows(dest)
        if verify and n1:
            chk = rd.read_parquet(dest).select_columns([key])
            leak = lookup(chk, keys, key, "semi").count()
            if leak:
                raise AssertionError(
                    f"forget_keys verification FAILED for {name!r}: "
                    f"{leak} deleted-key rows survive in {dest}")
        names.append(name)
        before.append(n0)
        after.append(n1)

    before = np.array(before, np.int64)
    after = np.array(after, np.int64)
    return pa.table({
        "table_name": pa.array(names, pa.string()),
        "rows_before": pa.array(before),
        "rows_deleted": pa.array(before - after),
        "rows_after": pa.array(after)})
