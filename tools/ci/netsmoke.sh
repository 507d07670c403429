#!/usr/bin/env bash
# Network service end-to-end smoke: qrossd over a Unix socket and TCP.
#
# Two-process proof over the socket: a warm qrossd serves a second
# short-lived `remote batch` client bit-identically from its cache (0 solver
# invocations), then a third over its ephemeral TCP port (the accept path
# that sets TCP_NODELAY; correctness only, no wall-time assertion), then
# SIGTERM drains cleanly (exit 0) and flushes the persistent cache.
# `0 failed` + non-empty energies guard against an all-failed run sneaking
# past the ' 0 solver invocations' grep.  The daemon
# runs with --trace so the smoke also proves the observability surface end to
# end: SIGUSR1 dumps a well-formed Chrome trace with the expected lifecycle
# spans, `qross_cli trace` fetches the same ring over the wire, and
# `remote metrics --prom` emits parseable Prometheus text.
#
# Usage: tools/ci/netsmoke.sh [BUILD_DIR]   (default: current dir)
set -euo pipefail
cd "${1:-.}"
rm -rf netsmoke

./qross_cli generate --count 2 --cities 6 --out-dir netsmoke/instances --seed 11
printf 'netsmoke/instances/uniform_0.tsp 25\nnetsmoke/instances/uniform_1.tsp 25\n' > netsmoke/jobs.txt
./qrossd --listen unix:netsmoke/qrossd.sock,tcp:127.0.0.1:0 --workers 2 \
  --cache-file netsmoke/cache.qsnap --trace --log-level info \
  --trace-dump netsmoke/trace.json > netsmoke/daemon.log 2>&1 &
echo $! > netsmoke/daemon.pid
for i in $(seq 1 50); do [ -S netsmoke/qrossd.sock ] && break; sleep 0.1; done
test -S netsmoke/qrossd.sock
./qross_cli remote batch --server unix:netsmoke/qrossd.sock \
  --jobs netsmoke/jobs.txt --solver da --replicas 4 --sweeps 20 --trace-id 7 | tee netsmoke/run1.txt
./qross_cli remote batch --server unix:netsmoke/qrossd.sock \
  --jobs netsmoke/jobs.txt --solver da --replicas 4 --sweeps 20 | tee netsmoke/run2.txt
awk '/^[0-9]/ {print $1, $NF}' netsmoke/run1.txt > netsmoke/energies1.txt
awk '/^[0-9]/ {print $1, $NF}' netsmoke/run2.txt > netsmoke/energies2.txt
test -s netsmoke/energies1.txt
diff netsmoke/energies1.txt netsmoke/energies2.txt
grep -q '2 solver invocations, 0 expired/cancelled, 0 failed' netsmoke/run1.txt
grep -q '2 cache hits, 0 coalesced, 0 solver invocations, 0 expired/cancelled, 0 failed' netsmoke/run2.txt
for i in $(seq 1 50); do grep -q 'listening on tcp:' netsmoke/daemon.log && break; sleep 0.1; done
tcp_ep=$(awk '/listening on tcp:/ {print $4}' netsmoke/daemon.log)
test -n "$tcp_ep"
./qross_cli remote batch --server "$tcp_ep" \
  --jobs netsmoke/jobs.txt --solver da --replicas 4 --sweeps 20 | tee netsmoke/run3.txt
awk '/^[0-9]/ {print $1, $NF}' netsmoke/run3.txt > netsmoke/energies3.txt
diff netsmoke/energies1.txt netsmoke/energies3.txt
grep -q '2 cache hits, 0 coalesced, 0 solver invocations, 0 expired/cancelled, 0 failed' netsmoke/run3.txt
./qross_cli remote metrics --server unix:netsmoke/qrossd.sock
./qross_cli remote metrics --server unix:netsmoke/qrossd.sock --prom | tee netsmoke/metrics.prom
grep -q '^# TYPE qross_jobs_submitted_total counter' netsmoke/metrics.prom
grep -q '^qross_run_ms_bucket{le="+Inf"}' netsmoke/metrics.prom
./qross_cli trace --server unix:netsmoke/qrossd.sock --out netsmoke/wire-trace.json
kill -USR1 "$(cat netsmoke/daemon.pid)"
for i in $(seq 1 50); do [ -s netsmoke/trace.json ] && break; sleep 0.1; done
test -s netsmoke/trace.json
python3 - <<'EOF'
import json
for path in ('netsmoke/trace.json', 'netsmoke/wire-trace.json'):
    doc = json.load(open(path))
    events = doc['traceEvents']
    assert isinstance(events, list) and events, f'{path}: no trace events'
    for ev in events:
        for key in ('name', 'cat', 'ph', 'ts', 'pid', 'tid'):
            assert key in ev, f'{path}: event missing {key}: {ev}'
    names = {ev['name'] for ev in events}
    for span in ('frame_decode', 'submit', 'queue', 'dispatch',
                 'kernel', 'result_flush'):
        assert span in names, f'{path}: missing {span} span, have {sorted(names)}'
    assert any(ev.get('args', {}).get('trace') == 7 for ev in events), \
        f'{path}: client-supplied trace id 7 not stitched through'
    print(f'{path}: OK, {len(events)} events, {len(names)} span names')
EOF
kill -TERM "$(cat netsmoke/daemon.pid)"
wait "$(cat netsmoke/daemon.pid)"
grep -q 'clean drain' netsmoke/daemon.log
grep -q 'trace_dumped' netsmoke/daemon.log
cat netsmoke/daemon.log
./qross_cli cache info --file netsmoke/cache.qsnap
