#!/usr/bin/env python3
"""Compare BENCH_*.json records against checked-in baselines.

Every bench binary writes one BENCH_<name>.json (see bench/bench_harness.hpp)
containing scalars (deterministic simulated results) and measures (wall-clock
summaries). Entries carry a direction ("lower"/"higher" is better) and a
`gate` flag: only gated entries can fail this script. The deterministic
simulated-time results gate, and so does one wall-clock ratio
(bench_kernels_micro's flight_recorder_overhead_ratio); every other
wall-clock result rides along as context. A gated entry fails when its
signed change relative to |baseline| moves past the threshold in its worse
direction, so negative baselines compare the right way round.

Exit status: 0 when every gated entry is within the threshold of its
baseline, 1 on any regression (or a gated entry/file missing from the
current run), 2 on usage errors.

Usage:
  tools/bench_compare.py --baseline bench/baselines --current . \
      [--threshold 0.15]
"""

import argparse
import glob
import json
import math
import os
import sys


def finite(v):
    """True for real finite numbers. bool is excluded (a True that leaked
    into a value field is a malformed record, not a measurement)."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def load_records(directory):
    records = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: cannot read {path}: {e}", file=sys.stderr)
            sys.exit(2)
        records[data.get("bench", os.path.basename(path))] = data
    return records


def entries(record):
    """Yield (key, value, direction, gated, feasible) for scalars and the
    p50 of measures. Entries without a name (malformed or hand-edited
    records) are skipped rather than crashing the comparison."""
    for s in record.get("scalars", []):
        if not isinstance(s, dict) or "name" not in s:
            continue
        yield (
            "scalar:" + s["name"],
            s.get("value"),
            s.get("direction", "lower"),
            bool(s.get("gate")),
            bool(s.get("feasible", True)),
        )
    for m in record.get("measures", []):
        if not isinstance(m, dict) or "name" not in m:
            continue
        yield (
            "measure:" + m["name"] + ":p50",
            m.get("p50"),
            m.get("direction", "lower"),
            bool(m.get("gate")),
            True,
        )


# Output-destination variables: they name files, not behaviour, so a
# mismatch (baseline generated without MH_METRICS, CI running with it) is
# not worth a warning.
_PROV_ENV_IGNORED = {"MH_METRICS", "MH_TRACE", "MH_FLIGHT_RECORDER"}


def provenance_warnings(bench, base, cur):
    """Warning rows for records produced on different machines/compilers.

    The harness embeds a `provenance` object (git SHA, compiler, CPU model,
    ISA dispatch tier, hostname, MH_* env) in every record; comparing
    records from different machines is legal but the report must say so
    instead of letting a 20% "regression" from a slower CI host pass as
    signal. git_sha is recorded but not compared — it differs on every
    commit by construction.
    """
    rows = []
    bprov = base.get("provenance")
    cprov = cur.get("provenance")
    if not isinstance(bprov, dict) or not isinstance(cprov, dict):
        return rows  # pre-provenance record: nothing to check
    for key in ("compiler", "cpu", "dispatch", "hostname"):
        bval, cval = bprov.get(key, "?"), cprov.get(key, "?")
        if bval != cval:
            rows.append((bench, f"provenance:{key}", bval, cval,
                         "mismatch", "warn"))
    benv = bprov.get("mh_env") or {}
    cenv = cprov.get("mh_env") or {}
    if isinstance(benv, dict) and isinstance(cenv, dict):
        for key in sorted(set(benv) | set(cenv)):
            if key in _PROV_ENV_IGNORED:
                continue
            bval, cval = benv.get(key, "<unset>"), cenv.get(key, "<unset>")
            if bval != cval:
                rows.append((bench, f"provenance:mh_env:{key}", bval, cval,
                             "mismatch", "warn"))
    return rows


def compare(bench, base, cur, threshold, zero_epsilon, zero_tolerance):
    """Compare one bench record pair.

    Returns (failures, rows): failure strings for every gated regression
    (never stopping at the first), and one table row per gated entry so the
    report shows the full delta picture, passing entries included.

    A baseline with |value| <= zero_epsilon has no meaningful ratio — a
    1e-12 jitter on a ~0 scalar would read as a million-percent regression —
    so near-zero baselines compare by absolute delta against zero_tolerance
    instead.
    """
    failures = []
    rows = []
    cur_map = {k: (v, d, g, f) for k, v, d, g, f in entries(cur)}
    base_keys = set()
    for key, base_val, direction, gated, base_feasible in entries(base):
        base_keys.add(key)
        if not gated:
            # Ungated baseline entries missing from the current run are
            # still worth a report line — a renamed scalar should be
            # visible, not silent — they just cannot fail the comparison.
            if key not in cur_map:
                rows.append((bench, key, base_val, None, "missing", "info"))
            continue
        if key not in cur_map:
            failures.append(f"{bench}: gated entry {key} missing from current run")
            rows.append((bench, key, base_val, None, "missing", "FAIL"))
            continue
        cur_val, _, _, cur_feasible = cur_map[key]
        if base_feasible != cur_feasible:
            failures.append(
                f"{bench}: {key} feasibility changed "
                f"({base_feasible} -> {cur_feasible})"
            )
            rows.append((bench, key, base_val, cur_val, "feasibility", "FAIL"))
            continue
        if not base_feasible:
            rows.append((bench, key, base_val, cur_val, "infeasible", "ok"))
            continue
        if base_val is None or cur_val is None:
            failures.append(f"{bench}: {key} has a null value")
            rows.append((bench, key, base_val, cur_val, "null", "FAIL"))
            continue
        if not finite(base_val) or not finite(cur_val):
            # NaN compares false against every threshold, so without this
            # check a gated NaN would sail through as "ok" — the exact
            # opposite of what a NaN measurement means. Hard failure.
            failures.append(
                f"{bench}: {key} has a non-finite value "
                f"({fmt_value(base_val)} -> {fmt_value(cur_val)})"
            )
            rows.append((bench, key, base_val, cur_val, "non-finite", "FAIL"))
            continue
        if abs(base_val) <= zero_epsilon:
            # Near-zero baseline: ratios explode on jitter, so gate on the
            # absolute delta instead.
            delta = cur_val - base_val
            worse = delta > zero_tolerance if direction == "lower" \
                else delta < -zero_tolerance
            if worse:
                failures.append(
                    f"{bench}: {key} regressed {base_val:.6g} -> "
                    f"{cur_val:.6g} (|delta| {abs(delta):.3g} > "
                    f"{zero_tolerance:.3g} on a near-zero baseline)"
                )
            rows.append((bench, key, base_val, cur_val,
                         f"{delta:+.3g} abs", "FAIL" if worse else "ok"))
            continue
        # Signed change against |baseline|: positive means the value rose,
        # whatever the baseline's sign (a plain cur/base ratio flips the
        # verdict when the baseline is negative).
        change = (cur_val - base_val) / abs(base_val)
        delta_pct = f"{change * 100:+.1f}%"
        worse = False
        if direction == "lower" and change > threshold:
            worse = True
            failures.append(
                f"{bench}: {key} regressed {base_val:.6g} -> {cur_val:.6g} "
                f"(+{change * 100:.1f}%, limit +{threshold * 100:.0f}%)"
            )
        elif direction == "higher" and change < -threshold:
            worse = True
            failures.append(
                f"{bench}: {key} regressed {base_val:.6g} -> {cur_val:.6g} "
                f"({change * 100:.1f}%, limit -{threshold * 100:.0f}%)"
            )
        rows.append((bench, key, base_val, cur_val, delta_pct,
                     "FAIL" if worse else "ok"))
    # Entries the current run produced that the baseline has never seen:
    # report them (a new scalar needs a refreshed baseline before it can
    # gate) instead of dropping them on the floor.
    for key, (cur_val, _, _, _) in sorted(cur_map.items()):
        if key not in base_keys:
            rows.append((bench, key, None, cur_val, "new", "info"))
    return failures, rows


def fmt_value(v):
    """Table cell for a numeric entry value or a provenance string."""
    if v is None:
        return "-"
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return f"{v:.6g}"
    s = v if isinstance(v, str) else repr(v)
    return s if len(s) <= 40 else s[:37] + "..."


def print_table(rows):
    """Render the per-entry delta table for every gated entry."""
    header = ("bench", "entry", "baseline", "current", "delta", "status")
    fmt_rows = [header]
    for bench, key, base_val, cur_val, delta, status in rows:
        fmt_rows.append((
            bench,
            key,
            fmt_value(base_val),
            fmt_value(cur_val),
            delta,
            status,
        ))
    widths = [max(len(r[i]) for r in fmt_rows) for i in range(len(header))]
    for i, r in enumerate(fmt_rows):
        print("  " + "  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        if i == 0:
            print("  " + "  ".join("-" * w for w in widths))


def write_markdown(path, rows, failures, compared, nbenches, threshold):
    """Write the gated-entry table as GitHub-flavored markdown (for
    $GITHUB_STEP_SUMMARY)."""
    lines = ["## Bench comparison", ""]
    if failures:
        lines.append(f"**{len(failures)} regression(s)** across {compared} "
                     f"gated entries ({nbenches} benches, threshold "
                     f"±{threshold * 100:.0f}%).")
    else:
        lines.append(f"No regressions: {compared} gated entries across "
                     f"{nbenches} benches within ±"
                     f"{threshold * 100:.0f}%.")
    lines += ["", "| bench | entry | baseline | current | delta | status |",
              "|---|---|---:|---:|---:|---|"]
    for bench, key, base_val, cur_val, delta, status in rows:
        base_s = fmt_value(base_val)
        cur_s = fmt_value(cur_val)
        if status == "FAIL":
            badge = ":x: FAIL"
        elif status == "info":
            badge = ":information_source: info"
        elif status == "warn":
            badge = ":warning: warn"
        else:
            badge = ":white_check_mark: ok"
        lines.append(f"| {bench} | `{key}` | {base_s} | {cur_s} | {delta} "
                     f"| {badge} |")
    if failures:
        lines += ["", "### Regressions", ""]
        lines += [f"- {f}" for f in failures]
    with open(path, "a") as f:
        f.write("\n".join(lines) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="directory with baseline BENCH_*.json files")
    parser.add_argument("--current", required=True,
                        help="directory with freshly produced BENCH_*.json")
    parser.add_argument("--markdown", metavar="PATH",
                        help="append the per-entry table as GitHub-flavored "
                             "markdown to PATH (e.g. $GITHUB_STEP_SUMMARY)")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed fractional regression (default 0.15)")
    parser.add_argument("--zero-epsilon", type=float, default=1e-9,
                        help="baselines with |value| <= this have no "
                             "meaningful ratio and compare by absolute "
                             "delta (default 1e-9)")
    parser.add_argument("--zero-tolerance", type=float, default=1e-6,
                        help="allowed absolute drift for near-zero "
                             "baselines (default 1e-6)")
    parser.add_argument("--fail-on-missing-baseline", action="store_true",
                        help="treat a current BENCH record with no baseline "
                             "as a failure instead of skipping it — the perf "
                             "job sets this so a new bench cannot join its "
                             "matrix without checking in a baseline")
    parser.add_argument("--regressed-out", metavar="PATH",
                        help="write the names of benches with gated "
                             "regressions to PATH, one per line — CI uses "
                             "this to re-run exactly the regressed benches "
                             "with the flight recorder armed and attribute "
                             "the delta via mh_trace_diff")
    args = parser.parse_args()

    baselines = load_records(args.baseline)
    currents = load_records(args.current)
    if not baselines:
        print(f"error: no BENCH_*.json baselines in {args.baseline}",
              file=sys.stderr)
        return 2

    failures = []
    all_rows = []
    compared = 0
    regressed_benches = []
    nwarnings = 0
    for bench, base in sorted(baselines.items()):
        if bench not in currents:
            failures.append(f"{bench}: no current BENCH record produced")
            regressed_benches.append(bench)
            continue
        prov_rows = provenance_warnings(bench, base, currents[bench])
        nwarnings += len(prov_rows)
        fails, rows = compare(bench, base, currents[bench], args.threshold,
                              args.zero_epsilon, args.zero_tolerance)
        gated = sum(1 for _, _, _, g, _ in entries(base) if g)
        compared += gated
        status = "FAIL" if fails else "ok"
        prov_note = f", {len(prov_rows)} provenance warnings" if prov_rows \
            else ""
        print(f"{bench}: {gated} gated entries, {len(fails)} regressions "
              f"[{status}]{prov_note}")
        failures.extend(fails)
        if fails:
            regressed_benches.append(bench)
        all_rows.extend(prov_rows)
        all_rows.extend(rows)
    if nwarnings:
        print(f"warning: {nwarnings} provenance mismatch(es) — baseline and "
              f"current records were not produced on the same "
              f"machine/compiler/env (see the 'warn' rows)")
    for bench in sorted(set(currents) - set(baselines)):
        if args.fail_on_missing_baseline:
            failures.append(f"{bench}: no baseline checked in (run it with "
                            f"--json and commit the record to the baseline "
                            f"directory)")
            regressed_benches.append(bench)
            all_rows.append((bench, "-", None, None, "no baseline", "FAIL"))
            print(f"{bench}: new bench (no baseline) [FAIL]")
        else:
            print(f"{bench}: new bench (no baseline) — skipped")

    if all_rows:
        print("\ngated entries:")
        print_table(all_rows)
    if args.markdown:
        write_markdown(args.markdown, all_rows, failures, compared,
                       len(baselines), args.threshold)
    if args.regressed_out:
        with open(args.regressed_out, "w") as f:
            f.write("".join(b + "\n" for b in sorted(set(regressed_benches))))

    print(f"\ncompared {compared} gated entries across "
          f"{len(baselines)} benches, threshold "
          f"{args.threshold * 100:.0f}%")
    if failures:
        print("\nregressions:")
        for f in failures:
            print("  " + f)
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
