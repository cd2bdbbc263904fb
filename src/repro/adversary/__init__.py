"""Byzantine adversary: behaviours, wrapping, and fault placement."""
