"""Import-path shim: the compile-once engine lives in
:mod:`repro.physical.executor` (the service layer only *uses* it)."""

from repro.physical.executor import BindingEnv, PreparedExecutable, prepare_plan

__all__ = ["BindingEnv", "PreparedExecutable", "prepare_plan"]
