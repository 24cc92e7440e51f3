"""Estimation of ln(Z(beta_min)/Z(beta_max)) for Gibbs energy models.

Each name is imported from the module that defines it, listed in that
module's ``__all__``; importing the package itself loads none of them.

- ``gibbsratio.instance``: exact count instances, ln Z, the true ratio and
  schedule quality.
- ``gibbsratio.models``: Ising, coloring and matching instances of small
  graphs by enumeration.
- ``gibbsratio.oracle``: the sampling oracle, with optional corruption.
- ``gibbsratio.tpa``: TPA runs and the cooling schedule thinned from them.
- ``gibbsratio.estimator``: knob rules, configs, the paired product
  estimator, ``estimate`` and median boosting.
- ``gibbsratio.lowerbound``: adversarial product-form instances.
- ``gibbsratio.harness``: reproducible trial batches.
- ``gibbsratio.claims``: the paper's claims as checks and pinned suites.
- ``gibbsratio.cli``: the ``gibbsratio`` command.
"""

__version__ = "0.1.0"
