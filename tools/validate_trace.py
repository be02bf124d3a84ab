#!/usr/bin/env python3
"""Validate GraphTempo observability artifacts.

Four modes, composable in one invocation:

  validate_trace.py --trace out.json            # a Chrome Trace Event file
  validate_trace.py --bench-log bench.out       # stdout of a bench binary
  validate_trace.py --slow-log slow.log         # the server's slow-query log
  validate_trace.py --prom metrics.txt          # Prometheus text exposition
  validate_trace.py --trace out.json --bench-log bench.out

Trace validation checks the schema WriteJson emits (docs/OBSERVABILITY.md):
a top-level object with a `traceEvents` array of `"ph":"M"` thread-name
metadata and `"ph":"X"` complete events carrying pid/tid/ts/dur, names in
the `<area>/<name>` taxonomy, non-negative times, and an
`otherData.dropped` count.

Bench-log validation extracts the one-line JSON objects the benches print
(`{"bench":...}`) and checks each parses, carries a string `bench` field,
and that every `*_p50_ms` percentile field has a matching `*_p99_ms` with
p50 <= p99. Engine records (any record carrying a `route` field) must
additionally report the executor counters as non-negative integers:
`cache_hits`, `cache_misses` and `stale_fallbacks` (docs/ENGINE.md §3;
`stale_fallbacks` counts planner degradations from a stale store to the
direct route). The route-carrying engine records (`fig10_engine`,
`fig11_engine`) must also report the shared-batch counters `batch_merged`
and `batch_fold_hits` as non-negative integers (docs/ENGINE.md §Batch
execution).

Slow-log validation (docs/OBSERVABILITY.md §Slow-query log) checks that
every line is one JSON object carrying the full attribution record: a
positive integer `request_id`, a `0x`-prefixed 16-hex-digit `fingerprint`,
non-empty `route` and `backend` strings, a `cache` outcome in
{hit, miss, bypass}, booleans `stale_fallback` and `batched`, non-negative
integers `total_us`, `kernel_words`, `shared_fold_hits` and
`shared_fold_misses`, and a `phases` object of `{"total_us": int,
"count": int}` entries.

Prometheus validation checks the text exposition `/metrics?format=prometheus`
serves: every sample belongs to a `# TYPE` family, names are in the
exposition charset, histogram `le` buckets are cumulative (non-decreasing
as `le` grows), the mandatory `{le="+Inf"}` bucket equals `_count`, and
`_sum`/`_count` are present for every histogram.

Exit code 0 = everything validated; 1 = any check failed.
Standard library only.
"""

import argparse
import json
import re
import sys

SPAN_NAME_RE = re.compile(r"^[a-z0-9_]+(/[a-z0-9_]+)+$")


def fail(message):
    print(f"validate_trace: FAIL: {message}", file=sys.stderr)
    return False


def validate_trace(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return fail(f"{path}: not readable JSON: {error}")

    if not isinstance(document, dict):
        return fail(f"{path}: top level must be an object")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return fail(f"{path}: missing traceEvents array")
    other = document.get("otherData", {})
    if not isinstance(other.get("dropped"), int) or other["dropped"] < 0:
        return fail(f"{path}: otherData.dropped must be a non-negative integer")

    ok = True
    lanes_named = set()
    lanes_used = set()
    spans = 0
    for index, event in enumerate(events):
        where = f"{path}: traceEvents[{index}]"
        if not isinstance(event, dict):
            ok = fail(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase == "M":
            if event.get("name") != "thread_name":
                ok = fail(f"{where}: metadata event is not thread_name")
            elif not isinstance(event.get("args", {}).get("name"), str):
                ok = fail(f"{where}: thread_name without args.name")
            else:
                lanes_named.add(event.get("tid"))
        elif phase == "X":
            spans += 1
            name = event.get("name")
            if not isinstance(name, str) or not SPAN_NAME_RE.match(name):
                ok = fail(f"{where}: span name {name!r} outside the <area>/<name> taxonomy")
            for key in ("pid", "tid"):
                if not isinstance(event.get(key), int):
                    ok = fail(f"{where}: missing integer {key}")
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    ok = fail(f"{where}: {key} must be a non-negative number")
            lanes_used.add(event.get("tid"))
            args = event.get("args", {})
            if not all(isinstance(v, int) for v in args.values()):
                ok = fail(f"{where}: span args must be integers, got {args!r}")
        else:
            ok = fail(f"{where}: unexpected ph {phase!r}")

    unnamed = lanes_used - lanes_named
    if unnamed:
        ok = fail(f"{path}: lanes {sorted(unnamed)} carry events but have no thread_name")
    if spans == 0:
        ok = fail(f"{path}: no complete (ph=X) span events")
    if ok:
        print(f"validate_trace: {path}: OK "
              f"({spans} spans, {len(lanes_named)} lanes, "
              f"{other['dropped']} dropped)")
    return ok


def validate_bench_log(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as error:
        return fail(f"{path}: {error}")

    ok = True
    objects = 0
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line.startswith('{"bench":'):
            continue
        where = f"{path}:{number}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            ok = fail(f"{where}: bench JSON does not parse: {error}")
            continue
        objects += 1
        if not isinstance(record.get("bench"), str):
            ok = fail(f"{where}: missing string 'bench' field")
        for key, value in record.items():
            if key.endswith("_p50_ms"):
                partner = key[: -len("_p50_ms")] + "_p99_ms"
                if partner not in record:
                    ok = fail(f"{where}: {key} without {partner}")
                elif value > record[partner]:
                    ok = fail(f"{where}: {key}={value} exceeds {partner}={record[partner]}")
        if "route" in record:
            # Engine records: the executor counters must be present and sane.
            for counter in ("cache_hits", "cache_misses", "stale_fallbacks"):
                value = record.get(counter)
                if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                    ok = fail(f"{where}: engine record needs non-negative integer "
                              f"{counter!r}, got {value!r}")
        if record.get("bench") in ("fig10_engine", "fig11_engine"):
            # Route-carrying engine records: the shared-batch counters are
            # part of the contract (docs/ENGINE.md §Batch execution).
            for counter in ("batch_merged", "batch_fold_hits"):
                value = record.get(counter)
                if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                    ok = fail(f"{where}: engine record needs non-negative integer "
                              f"{counter!r}, got {value!r}")
        if "kernel" in record or "kernel_ms" in record:
            # Kernel-bearing records: timings are meaningless without knowing
            # which compute backend (scalar/avx2/avx512) produced them.
            if not isinstance(record.get("backend"), str):
                ok = fail(f"{where}: kernel record needs a string 'backend' "
                          f"field, got {record.get('backend')!r}")
    if objects == 0:
        ok = fail(f"{path}: no bench JSON lines found")
    if ok:
        print(f"validate_trace: {path}: OK ({objects} bench JSON lines)")
    return ok


FINGERPRINT_RE = re.compile(r"^0x[0-9a-f]{16}$")


def validate_slow_log(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as error:
        return fail(f"{path}: {error}")

    ok = True
    records = 0
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{number}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            ok = fail(f"{where}: slow-query record does not parse: {error}")
            continue
        if not isinstance(record, dict):
            ok = fail(f"{where}: record must be a JSON object")
            continue
        records += 1

        request_id = record.get("request_id")
        if not isinstance(request_id, int) or isinstance(request_id, bool) or request_id < 1:
            ok = fail(f"{where}: request_id must be a positive integer, got {request_id!r}")
        fingerprint = record.get("fingerprint")
        if not isinstance(fingerprint, str) or not FINGERPRINT_RE.match(fingerprint):
            ok = fail(f"{where}: fingerprint must match 0x<16 hex digits>, got {fingerprint!r}")
        for key in ("route", "backend"):
            value = record.get(key)
            if not isinstance(value, str) or not value:
                ok = fail(f"{where}: {key} must be a non-empty string, got {value!r}")
        if record.get("cache") not in ("hit", "miss", "bypass"):
            ok = fail(f"{where}: cache must be hit/miss/bypass, got {record.get('cache')!r}")
        for key in ("stale_fallback", "batched"):
            if not isinstance(record.get(key), bool):
                ok = fail(f"{where}: {key} must be a boolean, got {record.get(key)!r}")
        for key in ("total_us", "kernel_words", "shared_fold_hits", "shared_fold_misses"):
            value = record.get(key)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                ok = fail(f"{where}: {key} must be a non-negative integer, got {value!r}")
        phases = record.get("phases")
        if not isinstance(phases, dict):
            ok = fail(f"{where}: phases must be an object")
        else:
            for name, phase in phases.items():
                if not SPAN_NAME_RE.match(name):
                    ok = fail(f"{where}: phase name {name!r} outside the <area>/<name> taxonomy")
                if (not isinstance(phase, dict)
                        or not isinstance(phase.get("total_us"), int)
                        or not isinstance(phase.get("count"), int)
                        or phase["total_us"] < 0 or phase["count"] < 1):
                    ok = fail(f"{where}: phase {name!r} needs integer total_us >= 0 "
                              f"and count >= 1, got {phase!r}")
    if records == 0:
        ok = fail(f"{path}: no slow-query records found")
    if ok:
        print(f"validate_trace: {path}: OK ({records} slow-query records)")
    return ok


PROM_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
PROM_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})?'
    r'\s+(?P<value>\S+)'
    r'(?P<exemplar>\s+#\s+\{[^}]*\}\s+\S+)?\s*$')


def validate_prometheus(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as error:
        return fail(f"{path}: {error}")

    ok = True
    types = {}        # family name -> counter|histogram
    samples = 0
    histograms = {}   # family -> {"buckets": [(le, value)], "sum": v, "count": v}
    for number, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        where = f"{path}:{number}"
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                family, kind = parts[2], parts[3]
                if not PROM_NAME_RE.match(family):
                    ok = fail(f"{where}: invalid metric name {family!r}")
                if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                    ok = fail(f"{where}: invalid TYPE {kind!r}")
                types[family] = kind
                if kind == "histogram":
                    histograms[family] = {"buckets": [], "sum": None, "count": None}
            continue
        match = PROM_SAMPLE_RE.match(line)
        if not match:
            ok = fail(f"{where}: unparseable sample line {line!r}")
            continue
        samples += 1
        name = match.group("name")
        try:
            value = float(match.group("value"))
        except ValueError:
            ok = fail(f"{where}: non-numeric sample value {match.group('value')!r}")
            continue

        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in histograms:
                family = name[: -len(suffix)]
                break
        if family not in types:
            ok = fail(f"{where}: sample {name!r} without a preceding # TYPE line")
            continue
        if family in histograms:
            entry = histograms[family]
            if name.endswith("_bucket"):
                labels = match.group("labels") or ""
                le_match = re.search(r'le="([^"]*)"', labels)
                if not le_match:
                    ok = fail(f"{where}: histogram bucket without an le label")
                    continue
                le = le_match.group(1)
                entry["buckets"].append((where, le, value))
            elif name.endswith("_sum"):
                entry["sum"] = value
            elif name.endswith("_count"):
                entry["count"] = value

    for family, entry in histograms.items():
        buckets = entry["buckets"]
        if not buckets:
            ok = fail(f"{path}: histogram {family!r} has no buckets")
            continue
        previous = -1.0
        inf_value = None
        for where, le, value in buckets:
            if value < previous:
                ok = fail(f"{where}: bucket le={le!r} value {value} below the "
                          f"previous bucket's {previous} (must be cumulative)")
            previous = value
            if le == "+Inf":
                inf_value = value
        if inf_value is None:
            ok = fail(f"{path}: histogram {family!r} missing the le=\"+Inf\" bucket")
        if entry["count"] is None:
            ok = fail(f"{path}: histogram {family!r} missing {family}_count")
        elif inf_value is not None and inf_value != entry["count"]:
            ok = fail(f"{path}: histogram {family!r} +Inf bucket {inf_value} "
                      f"!= _count {entry['count']}")
        if entry["sum"] is None:
            ok = fail(f"{path}: histogram {family!r} missing {family}_sum")
    if samples == 0:
        ok = fail(f"{path}: no samples found")
    if ok:
        print(f"validate_trace: {path}: OK ({samples} samples, "
              f"{len(histograms)} histograms)")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--trace", action="append", default=[],
                        help="Chrome Trace Event JSON file to validate")
    parser.add_argument("--bench-log", action="append", default=[],
                        help="bench stdout capture whose JSON lines to validate")
    parser.add_argument("--slow-log", action="append", default=[],
                        help="server slow-query log (one JSON record per line)")
    parser.add_argument("--prom", action="append", default=[],
                        help="Prometheus text exposition to validate")
    arguments = parser.parse_args()
    if not (arguments.trace or arguments.bench_log
            or arguments.slow_log or arguments.prom):
        parser.error("nothing to validate: pass --trace, --bench-log, "
                     "--slow-log and/or --prom")

    ok = True
    for path in arguments.trace:
        ok = validate_trace(path) and ok
    for path in arguments.bench_log:
        ok = validate_bench_log(path) and ok
    for path in arguments.slow_log:
        ok = validate_slow_log(path) and ok
    for path in arguments.prom:
        ok = validate_prometheus(path) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
