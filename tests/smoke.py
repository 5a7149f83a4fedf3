"""Smoke checks: each command of `digests` run as `python -m cycliccovers`
in a process of its own, with this checkout's src/ first on the path.

Run from any directory, under any supported Python (pytest is not needed):

    python3 tests/smoke.py

It writes the input documents that `digests` names to a temporary
directory, checks each command's exit code 0 and stdout digest and the
exit codes of `EXITS`, and prints one line per check: ok or FAIL, the
command, its exit code and its time.  It exits 1 if any check fails.
pytest does not collect it, as its name matches no test-file pattern.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time

import digests  # tests/ is on the path as the script's directory

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(argv):
    """The exit code, stdout and stderr of the CLI on argv."""
    proc = subprocess.run([sys.executable, "-m", "cycliccovers", *argv],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr.decode()


def write_inputs(tmp):
    """Write the input documents of `digests` to the directory tmp."""
    graph, cover = digests.readme_documents()
    graphs = json.loads(run("graphs --genus 4 --order 3 --format doc".split())[1])["graphs"]
    path = {"order": 2, "vertices": [{"id": i, "colour": "I0", "genus": 1} for i in range(2000)],
            "edges": [{"type": "link", "ends": [i, i + 1], "labels": [0, 0]} for i in range(1999)]}
    docs = {"graph": graph, "cover": cover, "multi": json.dumps(graphs[12]),
            "pair": json.dumps(graphs[52]), "path": json.dumps(path),
            "cover-20000": json.dumps(
                digests.cover_document(random.Random(2010), 600, 6, 20000, 5))}
    for name, text in docs.items():
        with open(os.path.join(tmp, name + ".json"), "w", encoding="utf-8") as fh:
            fh.write(text)


# The checks of exit codes alone: an order far above the Wiman bound exits 0,
# and `enlarge` refuses the README graph, whose branch-swapping loop no
# maximal graph has, with exit 2 and a one-line message.
EXITS = {"admissible --genus 2 --order 1000000": 0,
         "enlarge --input {tmp}/graph.json --vertex 1 --kind detached": 2}


def main() -> int:
    checks = [*digests.SUITE.items(), *digests.SMOKE.items(), *EXITS.items()]
    failed, total = 0, time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        for command, want in checks:
            start = time.perf_counter()
            code, out, err = run(digests.argv(command, tmp))
            if isinstance(want, str):
                bad = code != 0 or hashlib.sha1(out).hexdigest() != want
            else:
                bad = code != want or code != 0 and len(err.rstrip("\n").splitlines()) != 1
            print("%s %s: exit %d, %.2f s" % ("FAIL" if bad else "ok", command, code,
                                              time.perf_counter() - start), flush=True)
            failed += bad
    print("%d of %d checks failed, %.1f s" % (failed, len(checks), time.perf_counter() - total))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
