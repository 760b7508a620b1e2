"""``repro serve`` with every layer's entry points wrapped.

The serve-edit traced run starts the server through this file instead
of ``python -m repro``. Cluster workers fork from this process and
inherit the wrappers; each worker flushes its per-layer totals into its
``repro.obs`` metrics registry after every request, and the ``metrics``
wire op sums them across workers. Arguments are those of ``repro``.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from layers import LayerTracer, installed

    from repro.cli import main
    from repro.obs import metrics as obs_metrics

    with installed(LayerTracer(registry=obs_metrics.REGISTRY)):
        sys.exit(main(sys.argv[1:]))
