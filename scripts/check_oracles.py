"""Driver-style oracle comparison for selected queries at sf0.01.

Prints one ``name: OK/FAIL`` line per query and writes the sweep as
``SWEEP_r{N}.json`` at the repo root (N = one past the newest
``CORRECTNESS_r*.json`` or ``SWEEP_r*.json``, so no sweep overwrites an
earlier one): name, status, row count and wall seconds of
the query (run + collect, oracle excluded) per query.

    python scripts/check_oracles.py --all          # every oracle
    python scripts/check_oracles.py tpch_q3 tpch_q6
"""
import glob
import json
import os
import re
import sys
import time

import duckdb
import pandas as pd
import ray

sys.path.insert(0, "/root/repo")
import __ray_entry__ as entry

SF = "/root/testdata/sf0.01"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]

names = sys.argv[1:] or [
    "docs_by_lang", "events_by_type", "events_hourly", "events_sessionize",
    "top_users_by_value", "tpch_q1", "revenue_by_nation",
]
if names == ["--all"]:
    import __ray_entry__ as _e
    names = sorted(_e.oracle_sql())

ray.init(address="local", num_cpus=8, include_dashboard=False,
         ignore_reinit_error=True)

con = duckdb.connect()
for t in TABLES:
    con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")

qs = entry.queries()
oracles = entry.oracle_sql()

def norm(df):
    df = df[sorted(df.columns)].copy()
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    return df

fails = 0
sweep = []
for name in names:
    t0 = time.perf_counter()
    res = qs[name](SF)
    if hasattr(res, "to_pandas"):
        res = res.to_pandas()
    wall_s = time.perf_counter() - t0
    mine = norm(pd.DataFrame(res))
    orc = norm(con.execute(oracles[name]).df())
    ok_rows = len(mine) == len(orc)
    ok_dtype = list(map(str, mine.dtypes)) == list(map(str, orc.dtypes))
    ok_vals = ok_rows and ok_dtype and mine.equals(orc)
    status = "OK" if (ok_rows and ok_dtype and ok_vals) else "FAIL"
    if status == "FAIL":
        fails += 1
    sweep.append({"name": name, "status": status, "rows": len(mine),
                  "wall_s": round(wall_s, 3)})
    print(f"{name}: {status} rows={len(mine)}/{len(orc)} "
          f"dtypes_match={ok_dtype} vals={ok_vals}")
    if not ok_dtype:
        print("  mine:", dict(zip(mine.columns, map(str, mine.dtypes))))
        print("  orc :", dict(zip(orc.columns, map(str, orc.dtypes))))
    elif not ok_vals and ok_rows:
        neq = (mine != orc).any()
        print("  differing cols:", list(neq[neq].index))

ray.shutdown()

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# one past the newest round of either file, so a second sweep in one
# round writes a new file instead of overwriting the first
rounds = [int(m.group(1)) for pat in ("CORRECTNESS", "SWEEP")
          for f in glob.glob(f"{root}/{pat}_r*.json")
          if (m := re.search(r"_r(\d+)\.json$", f))]
out = f"{root}/SWEEP_r{max(rounds, default=0) + 1:02d}.json"
with open(out, "w") as fh:
    json.dump({"sf": SF, "failed": fails, "queries": sweep}, fh, indent=1)
print(f"wrote {out}")
sys.exit(1 if fails else 0)
