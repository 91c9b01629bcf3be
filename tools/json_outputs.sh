#!/usr/bin/env bash
# Prints every JSON document `cspm` emits for one fixed script, with the
# run-to-run values (`elapsed_ms`, `elapsed_secs`, the metrics text)
# masked, so two builds can be compared byte for byte:
#
#   tools/json_outputs.sh old/cspm /tmp/a > a.txt
#   tools/json_outputs.sh new/cspm /tmp/b > b.txt
#   diff a.txt b.txt
#
# Covers `mine --json`, `stats --json`, `mine --store --json` (seed, then
# warm), `stats --store --json`, one daemon session through every op
# (subscribe progress and done lines included), a --mem-budget daemon,
# and the typed errors unknown_session, malformed_json, bad_delta,
# oversized_frame, bad_graph, unknown_op and bad_name. The work dir is
# emptied first; every path in the output is relative to it. Needs
# python3 for the raw-socket requests.
set -uo pipefail
cspm=$(realpath "$1")
work=$2
rm -rf "$work" && mkdir -p "$work" && cd "$work" || exit 1

mask() {
  sed -E 's/"elapsed_(ms|secs)":[0-9.e+-]+/"elapsed_\1":"#"/g; s/"text":"([^"\\]|\\.)*"/"text":"#"/g'
}
run() {
  echo "## $*"
  "$cspm" "$@" 2>/dev/null | mask
  echo "exit=${PIPESTATUS[0]}"
}
raw() { # raw <label>: sends stdin over the socket, prints one response line
  echo "## raw $1"
  python3 -c 'import socket, sys
s = socket.socket(socket.AF_UNIX); s.connect("d.sock")
s.sendall(sys.stdin.buffer.read()); print(s.makefile().readline(), end="")' | mask
}
daemon() { # daemon <serve flags…>: starts `cspm serve` on d.sock
  "$cspm" serve --socket d.sock "$@" 2>/dev/null &
  pid=$!
  while [ ! -S d.sock ]; do sleep 0.05; done
}
stop() {
  run client shutdown --socket d.sock
  wait "$pid"
  echo "daemon exit=$?"
}

"$cspm" generate dblp g.txt --scale tiny --seed 7 >/dev/null
run mine g.txt --json --top 3
run stats g.txt --json
run mine g.txt --store s.csps --json --top 3
run mine --store s.csps --json --top 3
run stats --store s.csps --json

daemon --store-dir store --threads 2
run client ping --socket d.sock
run client open t1 --socket d.sock --graph g.txt
echo '{"add_vertices":[["a"]],"add_edges":[[0,{"new":0}]]}' > d1.json
run client delta t1 --socket d.sock --file d1.json
echo '{"remove_edges":[[1,2]],"change_labels":[[3,"ICML","NIPS"]],"remove_vertices":[5]}' > d2.json
run client delta t1 --socket d.sock --file d2.json
run client mine t1 --socket d.sock --top 2
run client subscribe t1 --socket d.sock --top 2
run client stats t1 --socket d.sock
run client stats --socket d.sock
raw metrics <<< '{"op":"metrics"}'
run client close t1 --socket d.sock
run client stats t1 --socket d.sock
run client open t1 --socket d.sock
run client mine t1 --socket d.sock --top 1
run client mine ghost --socket d.sock
raw malformed_json <<< 'not json {'
raw bad_delta <<< '{"op":"delta","session":"t1","remove_edges":[[0]]}'
python3 -c 'print("x" * (8 * 1024 * 1024 + 1))' | raw oversized_frame
echo "e 0 4000000000" > hostile.txt
run client open hostile --socket d.sock --graph hostile.txt
raw unknown_op <<< '{"op":"fly"}'
raw bad_name <<< '{"op":"open","session":"q\"x"}'
run client stats --socket d.sock
stop

daemon --threads 1 --mem-budget 100000000
run client open m1 --socket d.sock --graph g.txt
run client stats --socket d.sock
stop
