//! Shared client-side utilities.

/// Accumulates raw bytes and yields complete `\n`-terminated lines with
/// the terminator (and any preceding `\r`) stripped.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LineBuf {
    buf: Vec<u8>,
}

impl LineBuf {
    /// Empty buffer.
    pub fn new() -> LineBuf {
        LineBuf::default()
    }

    /// Append raw bytes.
    pub fn push(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Pop the next complete line, if any.
    pub fn pop_line(&mut self) -> Option<Vec<u8>> {
        let nl = self.buf.iter().position(|b| *b == b'\n')?;
        let mut line: Vec<u8> = self.buf.drain(..=nl).collect();
        line.pop(); // '\n'
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Some(line)
    }

    /// Bytes not yet forming a complete line.
    pub fn pending(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_split_across_chunks() {
        let mut lb = LineBuf::new();
        lb.push(b"220 re");
        assert_eq!(lb.pop_line(), None);
        lb.push(b"ady\r\n331 next\n");
        assert_eq!(lb.pop_line(), Some(b"220 ready".to_vec()));
        assert_eq!(lb.pop_line(), Some(b"331 next".to_vec()));
        assert_eq!(lb.pop_line(), None);
        assert!(lb.pending().is_empty());
    }

    #[test]
    fn bare_newline_yields_empty_line() {
        let mut lb = LineBuf::new();
        lb.push(b"\n");
        assert_eq!(lb.pop_line(), Some(Vec::new()));
    }

    #[test]
    fn pending_reports_partial() {
        let mut lb = LineBuf::new();
        lb.push(b"par");
        assert_eq!(lb.pending(), b"par");
    }
}
