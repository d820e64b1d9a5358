"""Full-stack benchmark of the Debuglet reproduction (entry point: run.py)."""
