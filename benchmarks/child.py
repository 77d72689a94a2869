"""One benchmark child: run an mfresnet command through its CLI and time it.

    python3 child.py SPAWN_CLOCK MODE -- COMMAND CONFIG [CLI options]

SPAWN_CLOCK is the parent's time.monotonic() just before it spawned this
process, so setup time covers interpreter start, `import mfresnet.cli` and
config resolution.  MODE is `run` for an untraced run, or the path of a file
to which the layer spans, kept in memory, are written when a traced run
ends.

The command runs through `mfresnet.cli.main`, so arguments are parsed and
the config is resolved exactly as for a user.  The last line of standard
output is one JSON object: exit_code, setup_s, wall_s, cpu_s, peak_rss_mb.
"""
import contextlib
import io
import json
import os
import resource
import sys
import time


def main():
    spawn_clock = float(sys.argv[1])
    mode = sys.argv[2]
    if sys.argv[3] != "--":
        sys.exit("usage: child.py SPAWN_CLOCK MODE -- COMMAND CONFIG [options]")
    argv = sys.argv[4:]

    import mfresnet.cli as cli

    recorder = None
    if mode != "run":
        from tracer import Recorder

        recorder = Recorder()
        recorder.install()

    marks = {}
    run_experiment = cli.run_experiment

    def timed_run_experiment(kind, cfg):
        marks["start"] = time.monotonic()
        cpu0 = time.process_time()
        try:
            return run_experiment(kind, cfg)
        finally:
            marks["end"] = time.monotonic()
            marks["cpu_s"] = time.process_time() - cpu0

    cli.run_experiment = timed_run_experiment
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if "end" not in marks:
        sys.exit(f"run_experiment was never reached (exit code {code})")
    if recorder is not None:
        recorder.write(mode)
    wall_s = marks["end"] - marks["start"]
    print(json.dumps({
        "exit_code": code,
        "module_file": os.path.abspath(cli.__file__),
        "setup_s": marks["start"] - spawn_clock,
        "wall_s": wall_s,
        "cpu_s": marks["cpu_s"],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
