#!/usr/bin/env python3
"""End-to-end smoke test for icsdivd, using only the wire protocol.

Starts the daemon on a throwaway unix socket and drives it exactly like a
third-party client would: raw length-prefixed JSON frames over a socket,
no icsdiv code on this side.  Checks the version handshake, warm-cache
optimize behaviour, error envelopes, batch parity with `icsdiv_cli batch`,
the status counters, hostile frames (deep nesting, a 40k-key object),
that a whitespace-padded frame hits the cache entry of its compact twin,
and a clean SIGTERM drain.

Usage: daemon_smoke.py ICSDIVD_BIN ICSDIV_CLI_BIN GRID_JSON
"""

import json
import os
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import time

PROTOCOL = 1


def send_frame(sock, payload: bytes) -> None:
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def recv_exact(sock, count: int) -> bytes:
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            raise RuntimeError("daemon closed the connection mid-reply")
        data += chunk
    return data


def call_text(sock, payload: str) -> dict:
    send_frame(sock, payload.encode())
    (length,) = struct.unpack(">I", recv_exact(sock, 4))
    return json.loads(recv_exact(sock, length))


def call(sock, request: dict) -> dict:
    return call_text(sock, json.dumps(request))


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def result_of(reply: dict, name: str) -> dict:
    expect(reply.get("icsdivd") == PROTOCOL, f"bad envelope: {reply}")
    expect(reply.get("status") == "ok", f"unexpected error reply: {reply}")
    expect(reply.get("response") == name, f"expected {name}: {reply}")
    return reply["result"]


def tiny_documents():
    """A six-host deployment in the icsdiv catalog/network JSON schema."""
    catalog = {
        "format": "icsdiv-catalog",
        "services": [
            {
                "name": "WB",
                "products": ["wb1", "wb2", "wb3"],
                "similarity": [
                    {"a": "wb1", "b": "wb2", "value": 0.35},
                    {"a": "wb2", "b": "wb3", "value": 0.10},
                ],
            },
            {
                "name": "DB",
                "products": ["db1", "db2", "db3"],
                "similarity": [{"a": "db1", "b": "db2", "value": 0.20}],
            },
        ],
    }
    hosts = []
    for index in range(6):
        hosts.append(
            {
                "name": f"h{index}",
                "services": [
                    {"service": "WB", "candidates": ["wb1", "wb2", "wb3"]},
                    {"service": "DB", "candidates": ["db1", "db2", "db3"]},
                ],
            }
        )
    network = {
        "format": "icsdiv-network",
        "hosts": hosts,
        "links": [["h0", "h1"], ["h1", "h2"], ["h2", "h3"], ["h3", "h4"],
                  ["h4", "h5"], ["h5", "h0"], ["h1", "h4"]],
    }
    return catalog, network


def strip_volatile(value):
    """Drop timing and concurrency keys that legitimately differ per run."""
    if isinstance(value, dict):
        return {
            key: strip_volatile(item)
            for key, item in value.items()
            if "seconds" not in key and key != "threads"
        }
    if isinstance(value, list):
        return [strip_volatile(item) for item in value]
    return value


def main() -> int:
    icsdivd, icsdiv_cli, grid_path = sys.argv[1], sys.argv[2], sys.argv[3]
    workdir = tempfile.mkdtemp(prefix="icsdivd_smoke_")
    socket_path = os.path.join(workdir, "icsdivd.sock")

    daemon = subprocess.Popen([icsdivd, "--socket", socket_path])
    try:
        deadline = time.time() + 10.0
        while not os.path.exists(socket_path):
            expect(daemon.poll() is None, "daemon exited before binding")
            expect(time.time() < deadline, "daemon never bound its socket")
            time.sleep(0.05)

        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(socket_path)

        # --- Handshake.
        version = result_of(call(sock, {"icsdivd": PROTOCOL, "request": "version"}), "version")
        expect(version["protocol"] == PROTOCOL, f"protocol mismatch: {version}")
        expect("optimize" in version["requests"], f"missing request: {version}")

        # --- Optimize twice: second reply must come from the warm cache.
        catalog, network = tiny_documents()
        optimize = {
            "icsdivd": PROTOCOL,
            "request": "optimize",
            "catalog": catalog,
            "network": network,
            "solver": "icm",
        }
        first = result_of(call(sock, optimize), "optimize")
        second = result_of(call(sock, optimize), "optimize")
        expect(not first["cached"] and second["cached"], "second optimize missed the cache")
        expect(first["assignment"] == second["assignment"], "cached assignment differs")

        # --- Errors arrive as machine-readable envelopes.
        error = call(sock, {"icsdivd": PROTOCOL, "request": "frobnicate"})
        expect(error["status"] == "invalid_argument", f"unexpected error reply: {error}")
        expect({"code", "message", "detail"} <= set(error["error"]), f"bad body: {error}")

        # --- Batch parity: daemon report == CLI report modulo timings.
        with open(grid_path, encoding="utf-8") as handle:
            grid = json.load(handle)
        batch = {"icsdivd": PROTOCOL, "request": "batch", "grid": grid, "threads": 1}
        daemon_report = result_of(call(sock, batch), "batch")["report"]
        expect(daemon_report["failed"] == 0, f"batch cells failed: {daemon_report}")

        cli_report_path = os.path.join(workdir, "cli_report.json")
        subprocess.run(
            [icsdiv_cli, "batch", "--grid", grid_path, "--json", cli_report_path],
            check=True,
        )
        with open(cli_report_path, encoding="utf-8") as handle:
            cli_report = json.load(handle)
        expect(
            strip_volatile(daemon_report) == strip_volatile(cli_report),
            "daemon batch report differs from icsdiv_cli batch",
        )

        # --- Status counters reflect everything the connection just did.
        status = result_of(call(sock, {"icsdivd": PROTOCOL, "request": "status"}), "status")
        expect(status["uptime_seconds"] > 0.0, f"bad uptime: {status}")
        expect(status["requests"]["total"] >= 5, f"bad request count: {status}")
        solve = status["stage_stats"]["solve"]
        expect(solve["planned"] == 2 and solve["executed"] == 1 and solve["hits"] == 1,
               f"bad solve counters: {solve}")

        # --- Hostile frames fail cleanly and the daemon stays up.
        deep = '{"request":"optimize","catalog":' + "[" * 200000
        error = call_text(sock, deep)
        expect(error["status"] == "parse_error", f"deep frame not rejected: {error}")
        result_of(call(sock, {"icsdivd": PROTOCOL, "request": "status"}), "status")

        # Sent compact, so the daemon's only full passes over the 40k-key
        # object are the frame scan and the catalog parse on the model miss.
        wide = dict(optimize, catalog={f"k{index}": index for index in range(40000)})
        started = time.time()
        error = call_text(sock, json.dumps(wide, separators=(",", ":")))
        elapsed = time.time() - started
        expect(error["status"] == "not_found", f"40k-key frame: unexpected reply {error}")
        expect(elapsed < 1.0, f"40k-key frame took {elapsed:.2f} s")

        # --- Spacing is not identity: a padded frame hits its compact twin.
        twin = dict(optimize, solver="trws")
        compact = result_of(call_text(sock, json.dumps(twin, separators=(",", ":"))), "optimize")
        padded = result_of(call_text(sock, " " + json.dumps(twin, indent=4) + "\n"), "optimize")
        expect(not compact["cached"] and padded["cached"], "padded optimize missed the cache")
        expect(compact["assignment"] == padded["assignment"], "cached assignment differs")
        sock.close()

        # --- SIGTERM must drain and exit 0, removing the socket file.
        daemon.send_signal(signal.SIGTERM)
        expect(daemon.wait(timeout=30) == 0, f"daemon exited {daemon.returncode}")
        expect(not os.path.exists(socket_path), "daemon leaked its socket file")
        print("daemon smoke ok:", json.dumps(strip_volatile(status)))
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


if __name__ == "__main__":
    sys.exit(main())
