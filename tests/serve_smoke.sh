#!/bin/sh
# Socket smoke test for `multival_cli serve` / `multival_cli client`:
# start a server, solve, solve the same model again (cache hit), read the
# stats table and the stats JSON, then shut the server down and check it
# exits cleanly.
# The pass runs twice — once over a Unix-domain socket, once over TCP on
# an ephemeral port — and asserts both transports serve byte-identical
# bodies for the same model.
set -eu

CLI="$1"
DIR=$(mktemp -d)
SERVER_PID=
cleanup() {
  if [ -n "$SERVER_PID" ]; then
    kill "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$DIR"
}
trap cleanup EXIT

cat > "$DIR/model.imc" <<'EOF'
des (0, 4, 4)
(0, "rate 1.0", 1)
(1, "rate 2.0", 0)
(1, "STEP; rate 1.0", 2)
(2, "rate 4.0", 3)
EOF

# run_pass <endpoint> <result-file>: ping, duplicate solve, stats, shutdown.
run_pass() {
  EP="$1"
  OUT="$2"

  # The client's built-in exponential-backoff connect retry replaces any
  # sleep-and-poll loop: the first call waits for the endpoint to appear.
  "$CLI" client --socket "$EP" --retry-ms 10000 ping | grep -q pong

  FIRST=$("$CLI" client --socket "$EP" reach "$DIR/model.imc")
  SECOND=$("$CLI" client --socket "$EP" reach "$DIR/model.imc")
  if [ "$FIRST" != "$SECOND" ]; then
    echo "duplicate solve differs: '$FIRST' vs '$SECOND'" >&2
    exit 1
  fi
  case "$FIRST" in
    *"P[reach absorbing]"*) ;;
    *) echo "unexpected solve output: $FIRST" >&2; exit 1 ;;
  esac
  printf '%s\n' "$FIRST" > "$OUT"

  "$CLI" client --socket "$EP" stats | grep -q "cache hits"
  # The one solve ran on a worker, so it is counted in the service's
  # solver totals.
  "$CLI" client --socket "$EP" stats --json | grep -q '"solver":{"solves":1,'

  "$CLI" client --socket "$EP" shutdown | grep -q bye
  wait "$SERVER_PID"
  SERVER_PID=
}

# Pass 1: Unix-domain socket.
SOCK="$DIR/mv.sock"
"$CLI" serve --socket "$SOCK" -j 2 &
SERVER_PID=$!
run_pass "$SOCK" "$DIR/unix.out"

# Pass 2: TCP on an ephemeral port.  `serve` prints the bound endpoint
# ("serving on 127.0.0.1:NNNNN") so the port never races another job.
"$CLI" serve --socket 127.0.0.1:0 -j 2 > "$DIR/serve_tcp.log" &
SERVER_PID=$!
TCP_EP=
for _ in $(seq 1 100); do
  TCP_EP=$(sed -n 's/^serving on \(127\.0\.0\.1:[0-9][0-9]*\)$/\1/p' \
           "$DIR/serve_tcp.log")
  [ -n "$TCP_EP" ] && break
  sleep 0.1
done
if [ -z "$TCP_EP" ]; then
  echo "TCP server never reported its bound endpoint" >&2
  exit 1
fi
run_pass "$TCP_EP" "$DIR/tcp.out"

if ! cmp -s "$DIR/unix.out" "$DIR/tcp.out"; then
  echo "TCP and Unix transports served different bodies" >&2
  exit 1
fi

echo "serve smoke test passed (unix + tcp)"
