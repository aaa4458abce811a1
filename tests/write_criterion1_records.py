"""Rewrite tests/data/criterion1_records.csv, criterion 1's replication digest.

Runs the acceptance module's bimodal sweep (1,000 replications, spectral and
gmm; about two minutes on two cores) and writes one row per replication and
method.  From the repository root:

    PYTHONPATH=src python tests/write_criterion1_records.py

A rewrite is a stated change: CHANGES.md says why, and how many records
moved and by how much.
"""

import csv

from hurstmodes import run_sweep
from test_acceptance import RECORD_FIELDS, RECORDS_CSV, bimodal_spec, criterion1_records


def main() -> None:
    records = criterion1_records(run_sweep(bimodal_spec()))
    RECORDS_CSV.parent.mkdir(exist_ok=True)
    with open(RECORDS_CSV, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(RECORD_FIELDS)
        writer.writerows(address + values for address, values in records.items())
    print(f"wrote {len(records)} records to {RECORDS_CSV}")


if __name__ == "__main__":
    main()
