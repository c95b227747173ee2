//! The 620-bit data-availability map.
//!
//! §5.3 of the paper sizes the per-neighbour control message: "we use 600
//! bits to record the data availability … The id of the first segment in the
//! buffer is indicated by 20 bits … getting the buffer information of one
//! neighbor takes 620 bits' communication cost in total."
//!
//! [`BufferMap`] is that message: a window of `B` availability bits anchored
//! at a head segment id, plus a compact wire encoding used to verify the bit
//! budget and round-trip the message.

use crate::buffer::FifoBuffer;
use crate::mem::MemoryFootprint;
use crate::segment::SegmentId;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Errors produced when decoding a wire buffer map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferMapDecodeError {
    /// Description of the malformation.
    pub message: String,
}

impl fmt::Display for BufferMapDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "buffer map decode error: {}", self.message)
    }
}

impl std::error::Error for BufferMapDecodeError {}

/// A data-availability window: `bits[i]` says whether segment `head + i` is
/// held by the advertising peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferMap {
    head: SegmentId,
    window: usize,
    words: Vec<u64>,
}

impl BufferMap {
    /// Creates an empty (all-unavailable) map anchored at `head` covering
    /// `window` segments.
    pub fn empty(head: SegmentId, window: usize) -> Self {
        assert!(window > 0, "buffer map window must be positive");
        BufferMap {
            head,
            window,
            words: vec![0u64; window.div_ceil(64)],
        }
    }

    /// Builds the map a peer would advertise from its FIFO buffer.
    ///
    /// The window is anchored at the smallest id that keeps the buffer's
    /// newest segment inside the window, so the advertised range always
    /// covers the most recent `window` ids the peer could hold.
    pub fn from_buffer(buffer: &FifoBuffer, window: usize) -> Self {
        let head = match buffer.max_id() {
            Some(max) => SegmentId(max.value().saturating_sub(window as u64 - 1)),
            None => SegmentId(0),
        };
        let mut map = BufferMap::empty(head, window);
        for id in buffer.ids() {
            map.set(id);
        }
        map
    }

    /// The first id covered by the window.
    pub fn head(&self) -> SegmentId {
        self.head
    }

    /// Number of segment ids covered by the window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Marks a segment as available.  Ids outside the window are ignored
    /// (they simply cannot be advertised, as in the real protocol).
    pub fn set(&mut self, id: SegmentId) {
        if let Some(offset) = self.offset_of(id) {
            self.words[offset / 64] |= 1 << (offset % 64);
        }
    }

    /// True when the map advertises `id`.
    pub fn contains(&self, id: SegmentId) -> bool {
        match self.offset_of(id) {
            Some(offset) => (self.words[offset / 64] >> (offset % 64)) & 1 == 1,
            None => false,
        }
    }

    /// Number of advertised segments.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over all advertised segment ids (ascending).
    pub fn ids(&self) -> impl Iterator<Item = SegmentId> + '_ {
        (0..self.window).filter_map(move |i| {
            if (self.words[i / 64] >> (i % 64)) & 1 == 1 {
                Some(SegmentId(self.head.value() + i as u64))
            } else {
                None
            }
        })
    }

    /// Size of the wire message in bits: `window` availability bits plus a
    /// 20-bit head id, matching the paper's 600 + 20 = 620 bits accounting
    /// for the default window of 600.
    pub fn wire_bits(&self) -> u64 {
        self.window as u64 + 20
    }

    /// Encodes the map to bytes (head id as 8 bytes + packed bit words).
    ///
    /// The byte encoding is slightly larger than the theoretical
    /// [`wire_bits`](Self::wire_bits) because it is byte aligned; overhead
    /// accounting always uses `wire_bits`.
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(8 + 4 + self.words.len() * 8);
        out.put_u64(self.head.value());
        out.put_u32(crate::cast::narrow(
            self.window,
            "window size fits the u32 wire field",
        ));
        for w in &self.words {
            out.put_u64(*w);
        }
        out.freeze()
    }

    /// Decodes a map previously produced by [`encode`](Self::encode).
    pub fn decode(mut bytes: Bytes) -> Result<Self, BufferMapDecodeError> {
        if bytes.len() < 12 {
            return Err(BufferMapDecodeError {
                message: format!("message too short: {} bytes", bytes.len()),
            });
        }
        let head = SegmentId(bytes.get_u64());
        let window = bytes.get_u32() as usize;
        if window == 0 {
            return Err(BufferMapDecodeError {
                message: "zero window".into(),
            });
        }
        if head.value().checked_add(window as u64 - 1).is_none() {
            return Err(BufferMapDecodeError {
                message: format!("window {window} at head {head} runs past the last segment id"),
            });
        }
        let expected_words = window.div_ceil(64);
        if bytes.len() != expected_words * 8 {
            return Err(BufferMapDecodeError {
                message: format!(
                    "expected {} payload bytes for window {window}, got {}",
                    expected_words * 8,
                    bytes.len()
                ),
            });
        }
        let mut words = Vec::with_capacity(expected_words);
        for _ in 0..expected_words {
            words.push(bytes.get_u64());
        }
        // Bits beyond the window must be zero.
        let tail_bits = expected_words * 64 - window;
        if tail_bits > 0 {
            let last = words[expected_words - 1];
            if last >> (64 - tail_bits) != 0 {
                return Err(BufferMapDecodeError {
                    message: "non-zero bits beyond the advertised window".into(),
                });
            }
        }
        Ok(BufferMap {
            head,
            window,
            words,
        })
    }

    fn offset_of(&self, id: SegmentId) -> Option<usize> {
        if id < self.head {
            return None;
        }
        let offset = (id.value() - self.head.value()) as usize;
        if offset < self.window {
            Some(offset)
        } else {
            None
        }
    }
}

impl MemoryFootprint for BufferMap {
    fn heap_bytes(&self) -> usize {
        crate::mem::vec_bytes(&self.words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_620_bits() {
        let map = BufferMap::empty(SegmentId(0), 600);
        assert_eq!(map.wire_bits(), 620);
    }

    #[test]
    fn set_and_contains_respect_the_window() {
        let mut map = BufferMap::empty(SegmentId(100), 10);
        map.set(SegmentId(100));
        map.set(SegmentId(109));
        map.set(SegmentId(110)); // outside, ignored
        map.set(SegmentId(99)); // outside, ignored
        assert!(map.contains(SegmentId(100)));
        assert!(map.contains(SegmentId(109)));
        assert!(!map.contains(SegmentId(110)));
        assert!(!map.contains(SegmentId(99)));
        assert_eq!(map.count(), 2);
        assert_eq!(
            map.ids().collect::<Vec<_>>(),
            vec![SegmentId(100), SegmentId(109)]
        );
    }

    #[test]
    fn from_buffer_covers_most_recent_window() {
        let mut buf = FifoBuffer::new(600);
        for i in 0..700u64 {
            buf.insert(SegmentId(i));
        }
        let map = BufferMap::from_buffer(&buf, 600);
        assert_eq!(map.head(), SegmentId(100));
        assert_eq!(map.count(), 600);
        assert!(map.contains(SegmentId(699)));
        assert!(!map.contains(SegmentId(99)));
    }

    #[test]
    fn from_small_buffer() {
        let mut buf = FifoBuffer::new(600);
        buf.insert(SegmentId(3));
        buf.insert(SegmentId(5));
        let map = BufferMap::from_buffer(&buf, 600);
        assert!(map.contains(SegmentId(3)));
        assert!(map.contains(SegmentId(5)));
        assert_eq!(map.count(), 2);

        let empty = BufferMap::from_buffer(&FifoBuffer::new(10), 600);
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.head(), SegmentId(0));
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut map = BufferMap::empty(SegmentId(12_345), 600);
        for i in (0..600).step_by(7) {
            map.set(SegmentId(12_345 + i));
        }
        let decoded = BufferMap::decode(map.encode()).unwrap();
        assert_eq!(decoded, map);
    }

    #[test]
    fn decode_rejects_malformed_messages() {
        assert!(BufferMap::decode(Bytes::from_static(&[1, 2, 3])).is_err());

        // Valid header but truncated payload.
        let mut bytes = BytesMut::new();
        bytes.put_u64(0);
        bytes.put_u32(600);
        bytes.put_u64(0);
        assert!(BufferMap::decode(bytes.freeze()).is_err());

        // Zero window.
        let mut bytes = BytesMut::new();
        bytes.put_u64(0);
        bytes.put_u32(0);
        assert!(BufferMap::decode(bytes.freeze()).is_err());

        // Bits set beyond the window.
        let mut bytes = BytesMut::new();
        bytes.put_u64(0);
        bytes.put_u32(10);
        bytes.put_u64(u64::MAX);
        assert!(BufferMap::decode(bytes.freeze()).is_err());
    }

    #[test]
    fn decode_rejects_windows_past_the_last_segment_id() {
        // Head u64::MAX, window 64, the top bit of the word set: the id the
        // bit names would be u64::MAX + 63.
        let mut bytes = BytesMut::new();
        bytes.put_u64(u64::MAX);
        bytes.put_u32(64);
        bytes.put_u64(1 << 63);
        let err = BufferMap::decode(bytes.freeze()).unwrap_err();
        assert!(err.message.contains("past the last segment id"), "{err}");

        // The last window that still fits decodes.
        let mut bytes = BytesMut::new();
        bytes.put_u64(u64::MAX - 63);
        bytes.put_u32(64);
        bytes.put_u64(1 << 63);
        let map = BufferMap::decode(bytes.freeze()).unwrap();
        assert_eq!(map.ids().collect::<Vec<_>>(), vec![SegmentId(u64::MAX)]);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = BufferMap::empty(SegmentId(0), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        /// Encoding then decoding reproduces exactly the advertised id set.
        #[test]
        fn prop_round_trip(head in 0u64..1_000_000, offsets in proptest::collection::btree_set(0u64..600, 0..100)) {
            let mut map = BufferMap::empty(SegmentId(head), 600);
            for o in &offsets {
                map.set(SegmentId(head + o));
            }
            let decoded = BufferMap::decode(map.encode()).unwrap();
            proptest::prop_assert_eq!(&decoded, &map);
            proptest::prop_assert_eq!(decoded.count(), offsets.len());
        }
    }
}
