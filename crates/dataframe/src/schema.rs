//! Schema description: named, typed fields.

use crate::value::DType;
use std::fmt;

/// A named, typed column descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub dtype: DType,
}

impl Field {
    pub fn new(name: impl Into<String>, dtype: DType) -> Self {
        Field { name: name.into(), dtype }
    }
}

/// The ordered list of fields of a [`crate::DataFrame`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Position of the field with the given name, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// Names of all fields in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for field in &self.fields {
            if !first {
                f.write_str(", ")?;
            }
            write!(f, "{}: {}", field.name, field.dtype)?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_lookup() {
        let s = Schema::new(vec![
            Field::new("a", DType::Int),
            Field::new("b", DType::Str),
        ]);
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.names(), vec!["a", "b"]);
    }

    #[test]
    fn display_format() {
        let s = Schema::new(vec![
            Field::new("x", DType::Float),
            Field::new("y", DType::Date),
        ]);
        assert_eq!(s.to_string(), "x: float, y: date");
    }
}
