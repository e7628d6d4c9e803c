"""Host-performance benchmark of the simulator (see README.md)."""
