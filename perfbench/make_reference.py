"""Write the reference CSVs the benchmark compares outputs against.

Run from the repository root, only to record the outputs of a commit
whose results are trusted:

    python3 perfbench/make_reference.py

Each workload's calls run once with the benchmark's settings; a CSV
larger than ``COMPRESS_ABOVE`` bytes is stored xz-compressed.
"""

import lzma
import sys

import outputs
import run
import workloads

COMPRESS_ABOVE = 64 * 1024


def main() -> int:
    cli = run.load_cli()
    for workload, calls in workloads.WORKLOADS.items():
        folder = outputs.REFERENCE_DIR / workload
        folder.mkdir(parents=True, exist_ok=True)
        for call in calls:
            path = folder / f"{call.name}.csv"
            for stale in (path, path.with_name(path.name + ".xz")):
                stale.unlink(missing_ok=True)
            code = cli.main([*call.argv, "--out", str(path)])
            if code != 0:
                print(f"{workload} {call.name}: exit code {code}", file=sys.stderr)
                return 1
            data = path.read_bytes()
            if len(data) > COMPRESS_ABOVE:
                path.with_name(path.name + ".xz").write_bytes(
                    lzma.compress(data, preset=9))
                path.unlink()
            print(f"{workload} {call.name}: {len(data)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
