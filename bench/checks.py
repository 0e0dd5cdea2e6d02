"""Output checks for one operation.

Each check returns ``(good, wrong)``: the number of result points that
were emitted and pass every check, and the number that were emitted but
fail one.  Every other point of the operation (a skipped row, a row of
an aborted sweep, a call that exits nonzero) failed without emitting a
wrong value.  The limits are the ones the package's own selftest and
acceptance criterion 01 use: ``T + R`` within 1e-10 of 1, and the
symmetric-barrier product within 1e-10 of 1/2.
Every emitted number must be finite; the strings ``inf`` and ``nan``
that the solve dump writes for saturated amplitudes count as non-finite
values.
"""

from __future__ import annotations

import json
import math

UNITARITY_TOL = 1e-10
PRODUCT_TOL = 1e-10


def _finite_tree(value) -> bool:
    """True when every number (and no inf/nan string) in a JSON tree is finite."""
    if isinstance(value, dict):
        return all(_finite_tree(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_tree(v) for v in value)
    if isinstance(value, bool) or value is None:
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    return value.strip().lower().lstrip("+-") not in ("inf", "nan", "infinity")


def _row_ok(row: dict, family: str) -> bool:
    if not all(math.isfinite(v) for v in row.values()):
        return False
    if "T" in row and "R" in row and abs(row["T"] + row["R"] - 1.0) > UNITARITY_TOL:
        return False
    if family == "sym" and "product" in row and abs(row["product"] - 0.5) > PRODUCT_TOL:
        return False
    return True


def _parse_csv(text: str) -> tuple:
    lines = text.splitlines()
    header = lines[0].split(",")
    rows, summary = [], {}
    for line in lines[2:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            flags = {"true": True, "false": False}
            summary[key] = flags[value] if value in flags else float(value)
        else:
            rows.append(dict(zip(header, map(float, line.split(",")))))
    return rows, summary


def _text_numbers_finite(text: str) -> bool:
    """Every number in a ``label: value unit`` text report is finite."""
    for line in text.splitlines():
        for token in line.partition(":")[2].replace("=", " ").split():
            try:
                if not math.isfinite(float(token)):
                    return False
            except ValueError:
                continue
    return True


def check_sweep(op: dict, rc, out: str) -> tuple:
    """(good, wrong) rows of one sweep; an aborted sweep emits none."""
    if rc != 0:
        return 0, 0
    try:
        if "json" in op["argv"]:
            payload = json.loads(out)
            rows, summary = payload["rows"], payload["summary"]
        else:
            rows, summary = _parse_csv(out)
    except (ValueError, KeyError, IndexError):
        return 0, op["points"]
    if not _finite_tree(summary) or len(rows) + summary["skipped_rows"] != op["points"]:
        return 0, op["points"]
    good = sum(_row_ok(row, op["family"]) for row in rows)
    return good, len(rows) - good


def _cold_output_ok(op: dict, out: str) -> bool:
    command = op["argv"][0]
    if command == "selftest":
        lines = out.splitlines()
        return bool(lines) and all(line.startswith("PASS ") for line in lines)
    if command == "feasibility" and "json" not in op["argv"]:
        return "verdict:" in out and _text_numbers_finite(out)
    try:
        payload = json.loads(out)
    except ValueError:
        return False
    if not _finite_tree(payload):
        return False
    if command == "solve":
        probs = payload["probabilities"]
        if abs(probs["T"] + probs["R"] - 1.0) > UNITARITY_TOL:
            return False
        if op["family"] == "sym":
            product = payload["uncertainty"].get("product_over_hbar")
            if product is None or abs(product - 0.5) > PRODUCT_TOL:
                return False
    return True


def check_cold(op: dict, rc, out: str) -> tuple:
    """(good, wrong) for one one-shot CLI call, which is a single point."""
    if rc != 0:
        return 0, 0
    ok = _cold_output_ok(op, out)
    return int(ok), int(not ok)
