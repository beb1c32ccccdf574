"""Batch runs over a corpus of .gr files with per-stage timings to CSV."""

from __future__ import annotations

import csv
import io
import time
from pathlib import Path
from typing import Any

from .decomposition import make_nice
from .dp import run_dp
from .graph import parse_graph
from .pipeline import DEFAULT_WIDTH_CAP, decompose

__all__ = ["FIELDS", "bench_file", "bench", "rows_to_csv"]

FIELDS = [
    "instance",
    "n",
    "m",
    "width",
    "gamma_prime",
    "max_table_size",
    "parse_ms",
    "decomp_ms",
    "dp_ms",
    "total_ms",
    "status",
    "error",
]


def bench_file(path: Path, max_width: int = DEFAULT_WIDTH_CAP) -> dict[str, Any]:
    """One row of stage timings for one instance; any failure is captured in
    the row instead of raised."""
    row: dict[str, Any] = {field: "" for field in FIELDS}
    row["instance"] = path.name
    t_total = time.perf_counter()
    try:
        t0 = time.perf_counter()
        g = parse_graph(path.read_text())
        row["parse_ms"] = round((time.perf_counter() - t0) * 1000, 3)
        row["n"], row["m"] = g.n, g.m

        t0 = time.perf_counter()
        nd = make_nice(g, decompose(g, max_width))
        row["decomp_ms"] = round((time.perf_counter() - t0) * 1000, 3)
        row["width"] = nd.width

        t0 = time.perf_counter()
        result = run_dp(g, nd, check=False)
        row["dp_ms"] = round((time.perf_counter() - t0) * 1000, 3)
        row["gamma_prime"] = result.gamma_prime
        row["max_table_size"] = result.max_table_size
        row["status"] = "ok"
    except Exception as exc:
        row["status"] = "error"
        row["error"] = str(exc)
    row["total_ms"] = round((time.perf_counter() - t_total) * 1000, 3)
    return row


def bench(
    corpus_dir: str | Path,
    out: str | Path | None = None,
    max_width: int = DEFAULT_WIDTH_CAP,
) -> list[dict[str, Any]]:
    """Process every .gr file in the directory (sorted by name); parse errors
    become failed rows and the run continues.  Writes CSV when out is given."""
    corpus = Path(corpus_dir)
    rows = [
        bench_file(path, max_width=max_width)
        for path in sorted(corpus.glob("*.gr"))
    ]
    if out is not None:
        Path(out).write_text(rows_to_csv(rows))
    return rows


def rows_to_csv(rows: list[dict[str, Any]]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
