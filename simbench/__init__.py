"""Host-time benchmark of the simulator (see ``simbench/README.md``)."""
