"""Data substrate: schemas, tables, GAN-space encoding, and datasets."""

from repro.data.encoding import MinMaxCodec, TableCodec
from repro.data.io import read_csv, write_csv
from repro.data.matrixizer import Matrixizer, side_for_features
from repro.data.schema import ColumnKind, ColumnRole, ColumnSpec, TableSchema
from repro.data.splits import train_test_split
from repro.data.table import Table

__all__ = [
    "ColumnKind",
    "ColumnRole",
    "ColumnSpec",
    "TableSchema",
    "Table",
    "MinMaxCodec",
    "TableCodec",
    "Matrixizer",
    "side_for_features",
    "train_test_split",
    "read_csv",
    "write_csv",
]
