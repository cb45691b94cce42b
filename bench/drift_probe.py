"""How steady is this machine?  Times a fixed pure-Python loop over and over.

    python3 bench/drift_probe.py [SECONDS]

Prints the loop's median time in consecutive 2-second windows and the
overall minimum, median and maximum.  andorxy is not involved; the spread
it shows is the floor under every timing the benchmark reports.
"""

import statistics
import sys
import time


def loop() -> int:
    s = 0
    for i in range(300_000):
        s += i * i % 7
    return s


def main() -> int:
    seconds = float(sys.argv[1]) if len(sys.argv) > 1 else 40.0
    times: list[tuple[float, float]] = []  # (start offset, duration)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        loop()
        times.append((t0 - start, time.perf_counter() - t0))
    windows: dict[int, list[float]] = {}
    for offset, d in times:
        windows.setdefault(int(offset // 2), []).append(d)
    for w, ds in sorted(windows.items()):
        print(f"{2 * w:4d}-{2 * w + 2:<4d}s  median {statistics.median(ds) * 1e3:6.1f} ms")
    ds = [d for _, d in times]
    medians = [statistics.median(v) for v in windows.values()]
    print(f"loop: min {min(ds) * 1e3:.1f} ms, median {statistics.median(ds) * 1e3:.1f} ms, "
          f"max {max(ds) * 1e3:.1f} ms over {len(ds)} runs; 2 s window medians "
          f"{min(medians) * 1e3:.1f}-{max(medians) * 1e3:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
