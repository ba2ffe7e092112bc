//! One little-endian byte format for every binary decoder: a cursor that
//! reads fields by name, the writers that produce them, and the one error a
//! rejected field is reported with.
//!
//! The broker/worker frames, the artifact-cache header and the workload
//! codec all read through [`Cursor`]. Every read is bounds-checked and names
//! its field, so a short or damaged input is a [`FieldError`], never a
//! panic. A count is checked against the bytes left before anything is
//! reserved for it: a forged length fails as a truncation instead of
//! allocating memory the input cannot fill.
//!
//! Integers are little-endian and fixed-width ([`Le`]), a `bool` is one byte
//! (0 or 1), a string is a `u32` byte count then UTF-8, a `u64` list is a
//! `u32` count then the values, and a column is a `u64` element count then
//! the elements.

use std::fmt;
use std::io;
use std::marker::PhantomData;

/// A rejected input: the dotted path of the field that failed, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldError {
    /// Dotted path of the offending field.
    pub field: &'static str,
    /// What was wrong with it.
    pub message: String,
}

impl FieldError {
    /// An error naming `field`.
    pub fn new(field: &'static str, message: impl Into<String>) -> Self {
        FieldError {
            field,
            message: message.into(),
        }
    }
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "field `{}`: {}", self.field, self.message)
    }
}

impl std::error::Error for FieldError {}

/// An `InvalidData` error carrying the [`FieldError`] itself, so a caller
/// can recover the field with `get_ref().downcast_ref::<FieldError>()`.
impl From<FieldError> for io::Error {
    fn from(e: FieldError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// `Ok(())` if `ok`; otherwise an error naming `field`, with the message
/// `why` builds.
pub fn ensure<M: Into<String>>(
    ok: bool,
    field: &'static str,
    why: impl FnOnce() -> M,
) -> Result<(), FieldError> {
    if ok {
        Ok(())
    } else {
        Err(FieldError::new(field, why()))
    }
}

/// A fixed-width little-endian element of the format.
pub trait Le: Copy + Default + 'static {
    /// Bytes per element.
    const WIDTH: usize;
    /// Appends the element's bytes.
    fn put(self, out: &mut Vec<u8>);
    /// Reads the element from exactly [`WIDTH`](Self::WIDTH) bytes.
    fn get(bytes: &[u8]) -> Self;
}

macro_rules! le {
    ($($t:ty),*) => {$(
        impl Le for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            fn put(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("one element's bytes"))
            }
        }
    )*};
}

le!(u8, u32, u64);

/// Writes a string: its `u32` byte count, then its UTF-8 bytes.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    (s.len() as u32).put(out);
    out.extend_from_slice(s.as_bytes());
}

/// Writes a `u64` list: its `u32` count, then the values.
pub fn put_u64s(out: &mut Vec<u8>, values: &[u64]) {
    (values.len() as u32).put(out);
    values.iter().for_each(|v| v.put(out));
}

/// Writes a column: its `u64` element count `n`, then its `n` elements.
pub fn put_column<T: Le>(out: &mut Vec<u8>, n: usize, values: impl Iterator<Item = T>) {
    (n as u64).put(out);
    out.reserve(n * T::WIDTH);
    values.for_each(|v| v.put(out));
}

/// The elements of one column, read by [`Cursor::column`], as bytes.
#[derive(Debug)]
pub struct Column<'a, T> {
    bytes: &'a [u8],
    element: PhantomData<T>,
}

impl<'a, T: Le> Column<'a, T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.bytes.len() / T::WIDTH
    }

    /// Whether the column has no element.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Element `i`, or the default past the end.
    pub fn get(&self, i: usize) -> T {
        self.bytes
            .get(i * T::WIDTH..(i + 1) * T::WIDTH)
            .map_or(T::default(), T::get)
    }

    /// The elements, decoded as they are iterated.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = T> + Clone + 'a {
        self.bytes.chunks_exact(T::WIDTH).map(T::get)
    }

    /// The elements' bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }
}

/// A bounds-checked little-endian cursor over an input, reading each value
/// by field name.
#[derive(Clone, Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    /// Number of bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// The next `n` bytes, or a truncation error naming `field`.
    pub fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], FieldError> {
        let left = self.remaining();
        ensure(n <= left, field, || {
            format!(
                "truncated: need {n} bytes at offset {}, {left} left",
                self.at
            )
        })?;
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    /// Reads one little-endian element.
    fn get<T: Le>(&mut self, field: &'static str) -> Result<T, FieldError> {
        Ok(T::get(self.take(T::WIDTH, field)?))
    }

    /// Reads one byte.
    pub fn u8(&mut self, field: &'static str) -> Result<u8, FieldError> {
        self.get(field)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, field: &'static str) -> Result<u32, FieldError> {
        self.get(field)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, field: &'static str) -> Result<u64, FieldError> {
        self.get(field)
    }

    /// Reads a one-byte `bool`: 0 or 1.
    pub fn bool(&mut self, field: &'static str) -> Result<bool, FieldError> {
        match self.u8(field)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(FieldError::new(field, format!("bad bool byte {other}"))),
        }
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self, field: &'static str) -> Result<String, FieldError> {
        let len = self.u32(field)? as usize;
        let bytes = self.take(len, field)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| FieldError::new(field, format!("invalid UTF-8: {e}")))
    }

    /// Reads a `u32` count, then that many `u64`s. The list's bytes are
    /// taken before anything is allocated for it.
    pub fn u64s(&mut self, field: &'static str) -> Result<Vec<u64>, FieldError> {
        let count = self.u32(field)?;
        Ok(self
            .elements::<u64>(field, u64::from(count))?
            .iter()
            .collect())
    }

    /// Reads a column: a `u64` element count of at most `max`, then the
    /// elements.
    pub fn column<T: Le>(
        &mut self,
        field: &'static str,
        max: u64,
    ) -> Result<Column<'a, T>, FieldError> {
        let n = self.u64(field)?;
        ensure(n <= max, field, || format!("{n} entries, more than {max}"))?;
        self.elements(field, n)
    }

    /// Reads a column whose element count must be `n`.
    pub fn column_of<T: Le>(
        &mut self,
        field: &'static str,
        n: u32,
    ) -> Result<Column<'a, T>, FieldError> {
        let stored = self.u64(field)?;
        ensure(stored == u64::from(n), field, || {
            format!("{stored} entries stored, {n} expected")
        })?;
        self.elements(field, stored)
    }

    /// Takes `n` little-endian elements with one bounds check: a forged
    /// count is a truncation error, never a reservation.
    pub fn elements<T: Le>(
        &mut self,
        field: &'static str,
        n: u64,
    ) -> Result<Column<'a, T>, FieldError> {
        let len = usize::try_from(n).map_or(usize::MAX, |n| n.saturating_mul(T::WIDTH));
        Ok(Column {
            bytes: self.take(len, field)?,
            element: PhantomData,
        })
    }

    /// Ends the read: every byte must have been read, or the error names
    /// `field`.
    pub fn finish(self, field: &'static str) -> Result<(), FieldError> {
        let left = self.remaining();
        ensure(left == 0, field, || {
            format!("{left} trailing bytes after the last field")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_bad_input_names_its_field() {
        let mut out = Vec::new();
        0xdead_beefu32.put(&mut out);
        1u8.put(&mut out);
        put_string(&mut out, "é");
        put_u64s(&mut out, &[3, 1 << 40]);
        put_column(&mut out, 2, [9u32, 10].into_iter());
        let mut r = Cursor::new(&out);
        assert_eq!(r.u32("a"), Ok(0xdead_beef));
        assert_eq!(r.bool("b"), Ok(true));
        assert_eq!(r.string("c").as_deref(), Ok("é"));
        assert_eq!(r.u64s("d"), Ok(vec![3, 1 << 40]));
        let column = r.column_of::<u32>("e", 2).unwrap();
        assert_eq!((column.get(1), column.get(2)), (10, 0));
        assert_eq!(r.clone().finish("end"), Ok(()));
        let err = r.u8("x.y").unwrap_err();
        let at = out.len();
        assert_eq!(
            err.message,
            format!("truncated: need 1 bytes at offset {at}, 0 left")
        );
        assert_eq!(err.to_string(), format!("field `x.y`: {}", err.message));
        let mut r = Cursor::new(&[3, 0, 0, 0, 0, 0, 0, 0, 0]);
        let err = r.column::<u8>("col", 2).unwrap_err();
        assert_eq!(err.message, "3 entries, more than 2");
        let err = r.finish("payload").unwrap_err();
        assert_eq!(err.message, "1 trailing bytes after the last field");
    }
}
