#!/usr/bin/env bash
# Service smoke: start a streamschedd with one worker, no queue and every
# flight slowed by the service.flight.slow fault site, then walk the status paths the service contract
# promises — 200 (solved), 200+cached (LRU hit), 409 (typed infeasibility),
# 429+Retry-After (queue full), 400 — on all four /v1 routes, and check
# /healthz, /debug/traces and the /metrics counters. Used by `make smoke` and the ci.yml service-smoke job, which
# must stay in lockstep.
#
# With --chaos the script runs the crash-tolerance smoke instead
# (DESIGN.md §11): kill -9 a daemon mid-traffic and verify the restart
# serves previously-solved problems from the replayed snapshot
# byte-identically with zero solver calls; arm a fault-injection panic and
# verify the 500 internal-panic contract; SIGTERM and verify the graceful
# drain spills the cache. Used by `make chaos-smoke` and the ci.yml chaos
# job.
set -euo pipefail

ADDR=${ADDR:-127.0.0.1:18080}
BASE="http://$ADDR"
DELAY=${DELAY:-3s}

workdir=$(mktemp -d)
DPID=
cleanup() {
	[ -n "$DPID" ] && kill "$DPID" 2>/dev/null || true
	rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/streamschedd" ./cmd/streamschedd

if [ "${1:-}" = "--chaos" ]; then
	SNAP="$workdir/cache.snap"

	cat >"$workdir/feasible.json" <<'EOF'
{"graph":{"name":"smoke","tasks":[{"name":"a","work":2},{"name":"b","work":3}],"edges":[{"from":0,"to":1,"volume":1}]},"platform":{"speeds":[1,1],"bandwidth":[[0,10],[10,0]]},"options":{"eps":1,"period":20}}
EOF
	cat >"$workdir/other.json" <<'EOF'
{"graph":{"name":"smoke2","tasks":[{"name":"a","work":4},{"name":"b","work":5}],"edges":[{"from":0,"to":1,"volume":1}]},"platform":{"speeds":[1,1],"bandwidth":[[0,10],[10,0]]},"options":{"eps":1,"period":20}}
EOF
	cat >"$workdir/third.json" <<'EOF'
{"graph":{"name":"smoke3","tasks":[{"name":"a","work":6},{"name":"b","work":7}],"edges":[{"from":0,"to":1,"volume":1}]},"platform":{"speeds":[1,1],"bandwidth":[[0,10],[10,0]]},"options":{"eps":1,"period":20}}
EOF

	start_daemon() { # start_daemon [extra flags...] — waits for readiness
		"$workdir/streamschedd" -addr "$ADDR" -snapshot "$SNAP" -snapshot-interval 200ms "$@" &
		DPID=$!
		for _ in $(seq 1 100); do
			[ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/readyz")" = 200 ] && return 0
			sleep 0.1
		done
		echo "FAIL: daemon never became ready" >&2
		exit 1
	}

	solve() { # solve <payload> <body-out> — prints the HTTP status
		curl -s -o "$2" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
			--data-binary @"$1" "$BASE/v1/solve"
	}

	metric() { curl -fsS "$BASE/metrics" | jq -r "$1"; }

	# 1. Prime two problems, and record a cache-hit response as the
	# byte-identical baseline for the warm restart.
	start_daemon
	for p in feasible other; do
		got=$(solve "$workdir/$p.json" "$workdir/chaos_$p.json")
		[ "$got" = 200 ] || {
			echo "FAIL: priming solve ($p) returned $got, want 200" >&2
			exit 1
		}
	done
	got=$(solve "$workdir/feasible.json" "$workdir/prehit.json")
	[ "$got" = 200 ] || {
		echo "FAIL: pre-kill repeat solve returned $got, want 200" >&2
		exit 1
	}
	jq -e '.cached == true' "$workdir/prehit.json" >/dev/null || {
		echo "FAIL: pre-kill repeat solve not served from cache" >&2
		exit 1
	}

	# 2. Wait for two completed background spills after the solves — the
	# second must have started after both entries were committed.
	w=$(metric .snapshotWrites)
	for _ in $(seq 1 100); do
		[ "$(metric .snapshotWrites)" -ge $((w + 2)) ] && break
		sleep 0.1
	done
	[ "$(metric .snapshotWrites)" -ge $((w + 2)) ] || {
		echo "FAIL: background snapshot never covered the primed solves" >&2
		exit 1
	}

	# 3. kill -9 — no drain, no final spill — then restart from the snapshot.
	kill -9 "$DPID" 2>/dev/null
	wait "$DPID" 2>/dev/null || true
	DPID=
	start_daemon
	[ "$(metric .snapshotReplayed)" = 2 ] || {
		echo "FAIL: restart replayed $(metric .snapshotReplayed) entries, want 2" >&2
		exit 1
	}
	got=$(solve "$workdir/feasible.json" "$workdir/posthit.json")
	[ "$got" = 200 ] || {
		echo "FAIL: post-restart solve returned $got, want 200" >&2
		exit 1
	}
	cmp -s "$workdir/prehit.json" "$workdir/posthit.json" || {
		echo "FAIL: cache-hit response not byte-identical across kill -9 restart" >&2
		exit 1
	}
	[ "$(metric .solveCalls)" = 0 ] || {
		echo "FAIL: restarted daemon made $(metric .solveCalls) solver calls for a solved problem" >&2
		exit 1
	}
	kill -9 "$DPID" 2>/dev/null
	wait "$DPID" 2>/dev/null || true
	DPID=

	# 4. Injected leader panic: 500 with the stable internal-panic token,
	# counted in /metrics, and a clean 200 on retry.
	rm -f "$SNAP"
	start_daemon -fault 'service.flight.panic=nth:1'
	got=$(solve "$workdir/third.json" "$workdir/panic.json")
	[ "$got" = 500 ] || {
		echo "FAIL: injected panic returned $got, want 500" >&2
		exit 1
	}
	jq -e '.error | startswith("internal-panic")' "$workdir/panic.json" >/dev/null || {
		echo "FAIL: 500 response missing the internal-panic token" >&2
		exit 1
	}
	got=$(solve "$workdir/third.json" "$workdir/panic_retry.json")
	[ "$got" = 200 ] || {
		echo "FAIL: post-panic retry returned $got, want 200" >&2
		exit 1
	}
	[ "$(metric .panics)" = 1 ] || {
		echo "FAIL: panics counter is $(metric .panics), want 1" >&2
		exit 1
	}

	# 5. Graceful drain: SIGTERM exits cleanly and spills the cache.
	kill "$DPID"
	wait "$DPID" || {
		echo "FAIL: daemon exited non-zero on SIGTERM" >&2
		exit 1
	}
	DPID=
	[ -s "$SNAP" ] || {
		echo "FAIL: graceful drain left no snapshot" >&2
		exit 1
	}

	echo "service chaos smoke OK: kill -9 warm restart (byte-identical hit, 0 solver calls), panic isolation (500 internal-panic, counted), SIGTERM drain spill"
	exit 0
fi

"$workdir/streamschedd" -addr "$ADDR" -workers 1 -queue 0 -fault "service.flight.slow=always:$DELAY" &
DPID=$!

for _ in $(seq 1 100); do
	curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
	sleep 0.1
done
curl -fsS "$BASE/healthz" | jq -e '.status == "ok"' >/dev/null || {
	echo "FAIL: /healthz not ok" >&2
	exit 1
}

cat >"$workdir/feasible.json" <<'EOF'
{"graph":{"name":"smoke","tasks":[{"name":"a","work":2},{"name":"b","work":3}],"edges":[{"from":0,"to":1,"volume":1}]},"platform":{"speeds":[1,1],"bandwidth":[[0,10],[10,0]]},"options":{"eps":1,"period":20}}
EOF
cat >"$workdir/other.json" <<'EOF'
{"graph":{"name":"smoke2","tasks":[{"name":"a","work":4},{"name":"b","work":5}],"edges":[{"from":0,"to":1,"volume":1}]},"platform":{"speeds":[1,1],"bandwidth":[[0,10],[10,0]]},"options":{"eps":1,"period":20}}
EOF
cat >"$workdir/infeasible.json" <<'EOF'
{"graph":{"name":"heavy","tasks":[{"name":"t","work":100}]},"platform":{"speeds":[1],"bandwidth":[[0]]},"options":{"period":1}}
EOF

post() { # post <payload> <body-out> [extra curl args...] — dumps headers to <body-out>.hdr
	local payload=$1 out=$2
	shift 2
	curl -s -o "$out" -D "$out.hdr" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
		--data-binary @"$payload" "$@" "$BASE/v1/solve"
}

# 1. Occupy the single worker with a slow first solve (expected 200).
post "$workdir/feasible.json" "$workdir/first.json" >"$workdir/first_code" &
FIRST=$!
sleep 1

# 2. A different problem finds the queue full: 429 with Retry-After.
got=$(post "$workdir/other.json" "$workdir/busy.json" -D "$workdir/headers")
[ "$got" = 429 ] || {
	echo "FAIL: queue-full solve returned $got, want 429" >&2
	exit 1
}
grep -qi '^retry-after:' "$workdir/headers" || {
	echo "FAIL: 429 response missing Retry-After" >&2
	exit 1
}

wait "$FIRST"
[ "$(cat "$workdir/first_code")" = 200 ] || {
	echo "FAIL: first solve returned $(cat "$workdir/first_code"), want 200" >&2
	exit 1
}

# 3. The same problem again: instant 200 served from the result cache.
got=$(post "$workdir/feasible.json" "$workdir/cached.json")
[ "$got" = 200 ] || {
	echo "FAIL: repeat solve returned $got, want 200" >&2
	exit 1
}
jq -e '.cached == true' "$workdir/cached.json" >/dev/null || {
	echo "FAIL: repeat solve not served from cache" >&2
	exit 1
}

# 4. An unsolvable problem: 409 with the classified reason.
got=$(post "$workdir/infeasible.json" "$workdir/infeasible_resp.json")
[ "$got" = 409 ] || {
	echo "FAIL: infeasible solve returned $got, want 409" >&2
	exit 1
}
jq -e '.infeasible.reason == "period-exceeded"' "$workdir/infeasible_resp.json" >/dev/null || {
	echo "FAIL: 409 response missing the classified reason" >&2
	exit 1
}

# 5. Replan the solved schedule after a platform delta: 200 with repair
# stats, then an instant cached 200, then a 400 with the stable reason
# token for an unsupported schema version.
jq -s '{graph: .[0].graph, platform: .[0].platform, options: .[0].options,
	schedule: .[1].schedule, delta: {speed: [{proc: 1, speed: 2}]}}' \
	"$workdir/feasible.json" "$workdir/first.json" >"$workdir/replan.json"
got=$(curl -s -o "$workdir/replan_resp.json" -w '%{http_code}' -X POST \
	-H 'Content-Type: application/json' --data-binary @"$workdir/replan.json" "$BASE/v1/replan")
[ "$got" = 200 ] || {
	echo "FAIL: replan returned $got, want 200" >&2
	exit 1
}
jq -e '.replan and .schedule' "$workdir/replan_resp.json" >/dev/null || {
	echo "FAIL: replan response missing repair stats or schedule" >&2
	exit 1
}
got=$(curl -s -o "$workdir/replan_cached.json" -w '%{http_code}' -X POST \
	-H 'Content-Type: application/json' --data-binary @"$workdir/replan.json" "$BASE/v1/replan")
[ "$got" = 200 ] || {
	echo "FAIL: repeat replan returned $got, want 200" >&2
	exit 1
}
jq -e '.cached == true' "$workdir/replan_cached.json" >/dev/null || {
	echo "FAIL: repeat replan not served from cache" >&2
	exit 1
}
jq '. + {schemaVersion: 99}' "$workdir/replan.json" >"$workdir/replan_badver.json"
got=$(curl -s -o "$workdir/replan_badver_resp.json" -w '%{http_code}' -X POST \
	-H 'Content-Type: application/json' --data-binary @"$workdir/replan_badver.json" "$BASE/v1/replan")
[ "$got" = 400 ] || {
	echo "FAIL: bad-version replan returned $got, want 400" >&2
	exit 1
}
jq -e '.error | startswith("unsupported-schema-version")' "$workdir/replan_badver_resp.json" >/dev/null || {
	echo "FAIL: bad-version replan missing the stable reason token" >&2
	exit 1
}

# 5b. The other two /v1 routes and their 400s. Every problem below is
# already cached, and cache hits never reach a flight, so the slow-flight
# fault does not hold these steps. A batch of the feasible and infeasible
# problems: 200 with one schedule and one classified infeasibility.
jq -s '{problems: .}' "$workdir/feasible.json" "$workdir/infeasible.json" >"$workdir/batch.json"
got=$(curl -s -o "$workdir/batch_resp.json" -w '%{http_code}' -X POST \
	-H 'Content-Type: application/json' --data-binary @"$workdir/batch.json" "$BASE/v1/batch")
[ "$got" = 200 ] || {
	echo "FAIL: batch returned $got, want 200" >&2
	exit 1
}
jq -e '.results[0].schedule and .results[1].infeasible.reason' "$workdir/batch_resp.json" >/dev/null || {
	echo "FAIL: batch response missing the schedule or the infeasible reason" >&2
	exit 1
}
# Simulate the feasible problem free-running and through a crash: every
# item is delivered, since ε=1 replication survives one crash.
jq '. + {scenarios: [{name: "dataflow", items: 20}, {name: "crash", items: 20, crashProcs: [0], crashAt: 30}]}' \
	"$workdir/feasible.json" >"$workdir/simulate.json"
simulate() { # simulate <payload> <body-out> — prints the HTTP status
	curl -s -o "$2" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
		--data-binary @"$1" "$BASE/v1/simulate"
}
got=$(simulate "$workdir/simulate.json" "$workdir/simulate_resp.json")
[ "$got" = 200 ] || {
	echo "FAIL: simulate returned $got, want 200" >&2
	exit 1
}
jq -e '(.scenarios | length) == 2 and all(.scenarios[]; .delivered == .items)' "$workdir/simulate_resp.json" >/dev/null || {
	echo "FAIL: simulate lost items or scenarios" >&2
	exit 1
}
# A scenario too large to simulate, and a crash processor the platform
# lacks: both 400, decided before any work.
jq '. + {scenarios: [{items: 2000000000}]}' "$workdir/feasible.json" >"$workdir/simulate_huge.json"
got=$(simulate "$workdir/simulate_huge.json" "$workdir/simulate_huge_resp.json")
[ "$got" = 400 ] || {
	echo "FAIL: oversized scenario returned $got, want 400" >&2
	exit 1
}
jq -e '.error | startswith("scenario-too-large")' "$workdir/simulate_huge_resp.json" >/dev/null || {
	echo "FAIL: oversized scenario missing the stable reason token" >&2
	exit 1
}
jq '. + {scenarios: [{crashProcs: [5]}]}' "$workdir/feasible.json" >"$workdir/simulate_badproc.json"
got=$(simulate "$workdir/simulate_badproc.json" "$workdir/simulate_badproc_resp.json")
[ "$got" = 400 ] || {
	echo "FAIL: out-of-range crash processor returned $got, want 400" >&2
	exit 1
}
# /debug/traces is read-only: 405 naming GET in Allow.
got=$(curl -s -o /dev/null -D "$workdir/debug_post.headers" -w '%{http_code}' -X POST "$BASE/debug/traces")
[ "$got" = 405 ] && grep -qi '^allow: *GET' "$workdir/debug_post.headers" || {
	echo "FAIL: POST /debug/traces returned $got without Allow: GET, want 405" >&2
	exit 1
}

# 6. Observability (DESIGN.md §12): tracing is on by default, so every
# response so far must carry an X-Trace-Id — the 200s, the 429 and the 409
# alike.
for hdr in "$workdir"/*.hdr; do
	grep -qi '^x-trace-id:' "$hdr" || {
		echo "FAIL: $(basename "$hdr" .hdr) response missing X-Trace-Id" >&2
		exit 1
	}
done
# ?debug=timing adds a Server-Timing stage breakdown (and this repeat
# solve is one more cache hit, counted in step 7).
got=$(curl -s -o "$workdir/timing.json" -D "$workdir/timing.json.hdr" -w '%{http_code}' \
	-X POST -H 'Content-Type: application/json' \
	--data-binary @"$workdir/feasible.json" "$BASE/v1/solve?debug=timing")
[ "$got" = 200 ] || {
	echo "FAIL: debug=timing solve returned $got, want 200" >&2
	exit 1
}
grep -qi '^server-timing:.*dur=' "$workdir/timing.json.hdr" || {
	echo "FAIL: debug=timing response missing Server-Timing stages" >&2
	exit 1
}
# /debug/traces serves the span trees of the recent requests (JSON), and
# the same ring in Chrome trace-event form with ?format=chrome.
curl -fsS "$BASE/debug/traces" >"$workdir/traces.json"
jq -e '.count >= 1 and (.traces[0].spans | length) >= 1' "$workdir/traces.json" >/dev/null || {
	echo "FAIL: /debug/traces has no span trees" >&2
	exit 1
}
jq -e '[.traces[] | select(.name == "/v1/solve")] | length >= 1' "$workdir/traces.json" >/dev/null || {
	echo "FAIL: /debug/traces retained no /v1/solve trace" >&2
	exit 1
}
jq -e '[.traces[].spans[].name] | index("solve") and index("cache")' "$workdir/traces.json" >/dev/null || {
	echo "FAIL: traces carry no solve/cache pipeline spans" >&2
	exit 1
}
curl -fsS "$BASE/debug/traces?format=chrome" >"$workdir/traces_chrome.json"
jq -e 'type == "array" and length >= 1 and all(.[]; .ph and .name)' "$workdir/traces_chrome.json" >/dev/null || {
	echo "FAIL: chrome trace export is empty or malformed" >&2
	exit 1
}
# /metrics speaks Prometheus text exposition on request.
curl -fsS "$BASE/metrics?format=prometheus" >"$workdir/metrics.prom"
grep -q '^# TYPE streamsched_requests_total counter' "$workdir/metrics.prom" || {
	echo "FAIL: prometheus scrape missing streamsched_requests_total family" >&2
	exit 1
}
grep -q '^streamsched_request_latency_ms{quantile="0.99"} ' "$workdir/metrics.prom" || {
	echo "FAIL: prometheus scrape missing latency quantiles" >&2
	exit 1
}
# grep reads the whole scrape (no -q): quitting at the first match can cut
# curl off mid-write, which pipefail reports as a failed scrape.
curl -fsS -H 'Accept: text/plain' "$BASE/metrics" | grep '^streamsched_uptime_seconds ' >/dev/null || {
	echo "FAIL: Accept: text/plain scrape did not select the prometheus form" >&2
	exit 1
}

# 7. Metrics report the cache hits (solve + replan + both batch problems
# + the simulate solve + the traced timing request), the rejection, and
# the requests and simulation runs of every route.
curl -fsS "$BASE/metrics" >"$workdir/metrics.json"
jq -e '.cache.hits == 6' "$workdir/metrics.json" >/dev/null || {
	echo "FAIL: /metrics does not report the cache hits" >&2
	exit 1
}
jq -e '.requests.batch == 1 and .requests.simulate == 3 and .simRuns == 2' "$workdir/metrics.json" >/dev/null || {
	echo "FAIL: /metrics does not count the batch and simulate requests" >&2
	exit 1
}
jq -e '.queue.rejected == 1' "$workdir/metrics.json" >/dev/null || {
	echo "FAIL: /metrics does not report the 429 rejection" >&2
	exit 1
}
jq -e '.requests.replan == 3' "$workdir/metrics.json" >/dev/null || {
	echo "FAIL: /metrics does not count the replan requests" >&2
	exit 1
}

echo "service smoke OK: 200, cached 200, 409 (period-exceeded), 429 (+Retry-After), replan 200/cached/400, batch 200, simulate 200/400/400, /debug/traces 405, tracing (X-Trace-Id, Server-Timing, /debug/traces JSON+chrome), prometheus scrape, metrics consistent"
