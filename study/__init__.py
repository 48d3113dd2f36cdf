"""Studies of the mechanism, kept outside the release package.

Nothing in ``dpfewshot`` imports this package, and it is not installed:
run it from the repository root (pytest puts the root on ``sys.path``).
"""
