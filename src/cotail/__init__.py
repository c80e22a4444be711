"""Nonparametric estimation of extreme CoVaR and CoES under tail dependence.

Import each name from its module, e.g. ``from cotail.covar_coes import
estimate_all``; the package itself exports only ``__version__``.
"""

__version__ = "0.1.0"
