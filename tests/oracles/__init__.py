"""Reference implementations kept only as test oracles."""
