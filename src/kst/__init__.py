"""Constructive superposition decomposition of multivariate functions
and its realization as deep ReLU networks, with exact-rational grid
arithmetic at desk scale.

The package exports nothing itself; import the module that holds a name:
``params`` (the parameter record and lambda weights), ``inner`` (the
inner function psi), ``bumps`` (the exact disjointness audit),
``target`` (built-in and expression targets), ``decompose`` (the outer
construction and its state files), ``relunet`` (ReLU networks),
``pipeline`` (a run from target to audited network), ``errors`` (the
typed errors) and ``cli`` (the ``kst`` command)."""
