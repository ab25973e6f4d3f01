#!/usr/bin/env python3
"""Run the corpus sweep and record every command's output in one file.

    python3 scripts/corpus_sweep.py OUT

Runs ``validate``, ``betti --both --N 3``, ``fiber-square`` and
``homology --N 3`` on each corpus document that is not a ``verify_*``
instance, and ``verify`` on each ``verify_*`` instance: 89 commands over the
bundled corpus.  Each goes through ``python -m l2betti.cli`` with this
checkout's ``src/`` on PYTHONPATH, from the checkout root and with paths
relative to it, and OUT receives the command line, its exit code, stdout
and stderr.  Two checkouts then compare with one ``cmp``:

    python3 scripts/corpus_sweep.py /tmp/before   # in the old checkout
    python3 scripts/corpus_sweep.py /tmp/after    # in the new checkout
    cmp /tmp/before /tmp/after
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PER_DOCUMENT = [["validate"], ["betti", "--both", "--N", "3"],
                ["fiber-square"], ["homology", "--N", "3"]]


def commands(root=ROOT):
    """The sweep's l2betti argument lists, in a fixed order."""
    names = sorted(f for f in os.listdir(os.path.join(root, "corpus"))
                   if f.endswith(".json"))
    out = []
    for name in names:
        path = "corpus/" + name
        if name.startswith("verify_"):
            out.append(["verify", path])
        else:
            out.extend([cmd[0], path] + cmd[1:] for cmd in PER_DOCUMENT)
    return out


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    with open(argv[0], "wb") as out:
        for args in commands():
            r = subprocess.run([sys.executable, "-m", "l2betti.cli"] + args,
                               capture_output=True, cwd=ROOT, env=env)
            out.write(b"$ l2betti %s\nexit %d\n--- stdout\n%s--- stderr\n%s\n"
                      % (" ".join(args).encode(), r.returncode, r.stdout, r.stderr))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
