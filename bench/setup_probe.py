"""Time a cold start: import toric_quant and load every named config.

Run as ``python3 setup_probe.py SRC_DIR CONFIG...`` in a fresh process;
prints the elapsed seconds.  Interpreter start-up is not included.
"""
import sys
import time


def main(argv):
    t0 = time.perf_counter()
    sys.path.insert(0, argv[0])
    from toric_quant import cli

    for path in argv[1:]:
        cli.load_config(path)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
