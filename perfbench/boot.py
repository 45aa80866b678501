"""Run one ``repro`` CLI command with the layer timers installed.

Usage: ``python perfbench/boot.py TALLY -- <repro arguments>``

Imports ``repro.cli`` (timed as ``cli.import_s``), wraps the layers'
public entry points (:func:`tracer.install`), runs the command and writes
the tally of self-time segments to ``TALLY`` when the command returns.
Forked pool workers write ``TALLY.w<pid>`` beside it.  The exit status is
the command's.
"""

import sys

import tracer  # the script directory is first on sys.path


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: boot.py TALLY -- <repro arguments>", file=sys.stderr)
        return 2
    recorder = tracer.Recorder(argv[0])
    recorder.enter("cli.import_s")
    import repro.cli
    recorder.exit()
    tracer.install(recorder)
    try:
        return repro.cli.main(argv[2:])
    finally:
        coalescer = getattr(recorder, "coalescer", None)
        if coalescer is not None:
            recorder.samples["serve.queue_wait_s"] = list(coalescer.queue_waits)
        _batch_sizes(recorder)
        recorder.dump()


def _batch_sizes(recorder):
    """Requests per coalesced batch, from the program's metrics registry."""
    try:
        from repro.obs.metrics import REGISTRY
    except ImportError:
        return
    flat = REGISTRY.flat()
    if flat.get("serve.batch_requests.count"):
        recorder.counters["serve.batch_requests_mean"] = (
            flat["serve.batch_requests.total"] / flat["serve.batch_requests.count"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
