"""Rewrite tests/data/replication_records.csv, the replication digest of
acceptance criteria 1, 4 and 8.

Runs the acceptance module's bimodal sweep (1,000 replications, spectral and
gmm), its 50 trimodal panels and its three consistency sweeps (150
replications, spectral), about three minutes on two cores, and writes one
row per criterion, replication and method.  From the repository root:

    PYTHONPATH=src python tests/write_replication_records.py

A rewrite is a stated change: CHANGES.md says why, and how many records
moved and by how much.
"""

import csv

from hurstmodes import run_sweep
from test_acceptance import (
    RECORD_FIELDS,
    RECORDS_CSV,
    bimodal_spec,
    consistency_sweeps,
    criterion1_records,
    criterion4_records,
    criterion8_records,
    trimodal_estimates,
)


def main() -> None:
    records = {
        **criterion1_records(run_sweep(bimodal_spec())),
        **criterion4_records(trimodal_estimates()),
        **criterion8_records(consistency_sweeps()),
    }
    RECORDS_CSV.parent.mkdir(exist_ok=True)
    with open(RECORDS_CSV, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(RECORD_FIELDS)
        writer.writerows(address + values for address, values in records.items())
    print(f"wrote {len(records)} records to {RECORDS_CSV}")


if __name__ == "__main__":
    main()
