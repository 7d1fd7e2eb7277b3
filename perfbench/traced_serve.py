"""``repro-cfpq`` with the benchmark's layer wrappers installed.

Traced serving runs start the server through this file instead of
``python -m repro.cli``, so the layers without spans of their own
(CNF, matrix build, the sparse kernels, relations) appear in the
server's ``--trace-file`` beside the program's spans::

    python3 perfbench/traced_serve.py serve --graph g.txt ... \
        --trace-file t.jsonl
"""

import sys

from common import use_checkout_sources

if __name__ == "__main__":
    use_checkout_sources()
    import layers
    from repro.cli import main

    layers.install_wrappers()
    raise SystemExit(main(sys.argv[1:]))
