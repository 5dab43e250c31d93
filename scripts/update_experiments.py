#!/usr/bin/env python3
"""Refresh the "Measured results" section of EXPERIMENTS.md.

Reads every record file the benchmark harness wrote to
``benchmarks/results/*.json`` and regenerates the text tables between the
``MEASURED RESULTS BEGIN/END`` markers in EXPERIMENTS.md, so the document
always reflects the latest benchmark run.

Usage:  python scripts/update_experiments.py
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"
EXPERIMENTS = REPO_ROOT / "EXPERIMENTS.md"

BEGIN_MARKER = "<!-- MEASURED RESULTS BEGIN (auto-generated by scripts/update_experiments.py) -->"
END_MARKER = "<!-- MEASURED RESULTS END -->"

#: Presentation order and titles for the known record files.
SECTIONS = [
    ("table1_designs", "Table 1 (measured) — design characteristics"),
    ("table2_accuracy", "Table 2 (measured) — accuracy and runtime vs the simulator"),
    ("table3_powernet", "Table 3 (measured) — proposed framework vs PowerNet"),
    ("fig4_noise_maps", "Figure 4 (measured) — map agreement, D1-D3"),
    ("fig5_d4_detail", "Figure 5 (measured) — D4 relative-error detail"),
    ("fig6_compression", "Figure 6 (measured) — temporal compression sweep"),
    ("ablation_features", "Feature / model ablation (measured)"),
    ("serving", "Serving throughput (measured) — batched service vs per-vector loop"),
]


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.io import format_table, read_json

    if not EXPERIMENTS.exists():
        print("EXPERIMENTS.md not found", file=sys.stderr)
        return 1

    blocks: list[str] = []
    for stem, title in SECTIONS:
        path = RESULTS_DIR / f"{stem}.json"
        if not path.exists():
            continue
        records = read_json(path)
        blocks.append(f"### {title}\n\n```\n{format_table(records)}\n```\n")

    if not blocks:
        print("no benchmark records found under benchmarks/results/; nothing to do")
        return 0

    text = EXPERIMENTS.read_text(encoding="utf-8")
    begin = text.index(BEGIN_MARKER) + len(BEGIN_MARKER)
    end = text.index(END_MARKER)
    generated = "\n\n## Measured results (latest benchmark run)\n\n" + "\n".join(blocks) + "\n"
    EXPERIMENTS.write_text(text[:begin] + generated + text[end:], encoding="utf-8")
    print(f"updated {EXPERIMENTS} with {len(blocks)} measured sections")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
