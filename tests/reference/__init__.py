"""Plain-Python reference models the simulator's fast paths are checked against."""
