"""CI smoke test for the long-lived synthesis server.

End to end through the real process boundary: train a tiny model,
register it, boot ``python -m repro serve`` as a subprocess on a free
port, hit ``/healthz`` and one ``/sample`` with the client library, then
SIGTERM the server and assert it drains and exits cleanly (code 0).
The same pass then repeats with ``--server-workers 2`` — the
multi-process serving tier must boot, serve, and drain (including its
worker processes and shared-memory segments) just as cleanly.  Last, the
bulk export path: ``repro synth -n 20000`` at ``--workers 2`` and at
``--workers 1`` must both exit 0, write byte-identical CSV files, and
leave no ``.tmp-*`` file behind.

Every wait is bounded, so a wedged server fails the job instead of
hanging it.  Run from the repository root::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

TIMEOUT_S = 120


def fail(message: str) -> None:
    print(f"SMOKE FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def train_and_register(registry_dir: str) -> None:
    from repro import TableGAN, low_privacy
    from repro.data.datasets import load_dataset
    from repro.serve import ModelRegistry

    bundle = load_dataset("adult", rows=64, seed=0)
    gan = TableGAN(low_privacy(epochs=1, batch_size=16, base_channels=4,
                               seed=0))
    gan.fit(bundle.train)
    ModelRegistry(registry_dir).register("smoke", gan, version="1")
    print("registered tiny model 'smoke@1'")


def read_port(proc: subprocess.Popen) -> int:
    """Parse the bound port from the server's boot line (bounded wait)."""
    result = {}

    def reader():
        for line in proc.stdout:
            print(f"[serve] {line.rstrip()}")
            if " at http://" in line and "port" not in result:
                result["port"] = int(line.rsplit(":", 1)[1])
                return

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    thread.join(timeout=TIMEOUT_S)
    if "port" not in result:
        fail("server did not print its address in time")
    return result["port"]


def run_pass(registry_dir: str, extra_args: list, label: str) -> None:
    """Boot one server configuration, exercise it, drain it."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--registry",
         registry_dir, "--host", "127.0.0.1", "--port", "0", *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        port = read_port(proc)
        from repro.serve import SynthesisClient

        with SynthesisClient(port=port, timeout=TIMEOUT_S) as client:
            health = client.health()
            if health["status"] != "ok":
                fail(f"[{label}] unexpected /healthz reply: {health}")
            print(f"[{label}] healthz ok (uptime {health['uptime_s']:.2f}s)")
            reply = client.sample("smoke", 32)
            if len(reply["rows"]) != 32 or reply["offset"] != 0:
                fail(f"[{label}] bad sample reply: n={len(reply['rows'])} "
                     f"offset={reply['offset']}")
            print(f"[{label}] sampled {len(reply['rows'])} rows x "
                  f"{len(reply['columns'])} columns from 'smoke'")

        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=TIMEOUT_S)
        if code != 0:
            fail(f"[{label}] server exited with code {code} after SIGTERM")
        print(f"[{label}] server drained and exited cleanly")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
            fail(f"[{label}] server had to be killed")


def run_export(registry_dir: str, out_dir: str, workers: int) -> bytes:
    """One ``repro synth`` CSV export through the CLI; returns its bytes."""
    out = os.path.join(out_dir, f"rows-{workers}.csv")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "repro", "synth", "--registry",
             registry_dir, "--model-name", "smoke", "-n", "20000",
             "--workers", str(workers), "--out", out],
            capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"[synth workers={workers}] still running after {TIMEOUT_S}s")
    print(f"[synth workers={workers}] {done.stdout.strip()}")
    if done.returncode != 0:
        fail(f"[synth workers={workers}] exited {done.returncode}: "
             f"{done.stderr.strip()}")
    with open(out, "rb") as handle:
        return handle.read()


def check_exports(registry_dir: str) -> None:
    """Worker count must not change a byte of the export."""
    with tempfile.TemporaryDirectory() as out_dir:
        two = run_export(registry_dir, out_dir, 2)
        one = run_export(registry_dir, out_dir, 1)
        if two != one:
            fail("synth CSV differs between --workers 2 and --workers 1")
        rows = two.count(b"\r\n") - 1
        if rows != 20000:
            fail(f"synth CSV holds {rows} rows, expected 20000")
        leftovers = [name for name in os.listdir(out_dir) if ".tmp-" in name]
        if leftovers:
            fail(f"export left temporary files behind: {leftovers}")
    print(f"synth exports identical at --workers 2 and 1 ({len(two)} bytes)")


def check_shm_clean() -> None:
    """No serving-pool shared-memory segments may outlive their server."""
    if not os.path.isdir("/dev/shm"):
        return  # non-POSIX-shm platform: nothing to check
    leaked = [name for name in os.listdir("/dev/shm")
              if name.startswith("rpool")]
    if leaked:
        fail(f"leaked shared-memory segments after drain: {leaked}")
    print("no leaked shared-memory segments")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        registry_dir = os.path.join(tmp, "registry")
        train_and_register(registry_dir)
        run_pass(registry_dir, [], "threaded")
        run_pass(registry_dir, ["--server-workers", "2"], "workers=2")
        check_shm_clean()
        check_exports(registry_dir)
    print("SMOKE PASSED")


if __name__ == "__main__":
    start = time.monotonic()
    main()
    print(f"total {time.monotonic() - start:.1f}s")
