"""``python -m repro``: the same entry point as the ``repro`` command."""

from repro.cli import main

raise SystemExit(main())
