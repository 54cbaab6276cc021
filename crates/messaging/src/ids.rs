//! Identifiers and the message type.

use std::fmt;

use bytes::Bytes;
use liquid_log::Records;
use liquid_sim::clock::Ts;

/// Identifies one broker in the cluster.
pub type BrokerId = u32;

/// A topic name plus partition number — the unit of ordering, leadership
/// and consumption.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TopicPartition {
    /// Topic name.
    pub topic: String,
    /// Partition index within the topic.
    pub partition: u32,
}

impl TopicPartition {
    /// Convenience constructor.
    pub fn new(topic: impl Into<String>, partition: u32) -> Self {
        TopicPartition {
            topic: topic.into(),
            partition,
        }
    }
}

impl fmt::Display for TopicPartition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.topic, self.partition)
    }
}

/// A message as seen by consumers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Offset within the partition.
    pub offset: u64,
    /// Broker-assigned timestamp (ms).
    pub timestamp: Ts,
    /// Optional key.
    pub key: Option<Bytes>,
    /// Payload.
    pub value: Bytes,
    /// Causal span id minted when the record was produced (0 = none:
    /// the span cache evicted it, or observability is compiled out).
    pub span: u64,
}

impl From<liquid_log::Record> for Message {
    fn from(r: liquid_log::Record) -> Self {
        Message {
            offset: r.offset,
            timestamp: r.timestamp,
            key: r.key,
            value: r.value,
            span: 0,
        }
    }
}

/// A fetched run of committed records delivered as one unit, with the
/// causal span of each record alongside. The records are a [`Records`]
/// view: a fetch from the hot head shares the log's runs — the same
/// `Record` structs every other reader of the range gets — and payloads
/// stay ref-counted [`Bytes`] slices all the way from the log's page, so
/// decomposing the batch into [`Message`]s bumps reference counts
/// instead of copying.
///
/// The batch also carries the offset bookkeeping a consumer needs to
/// advance exactly: [`end_offset`](Self::end_offset) is the next fetch
/// position (one past the last record, or the *requested* offset when
/// nothing was readable), and [`high_watermark`](Self::high_watermark)
/// is the partition's watermark at fetch time. Advancing by
/// `end_offset` rather than by record count is what keeps consumer lag
/// exact when compaction has punched holes in the offset sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageBatch {
    records: Records,
    /// Span id per record (parallel to `records`; 0 = none).
    spans: Vec<u64>,
    end_offset: u64,
    high_watermark: u64,
}

impl MessageBatch {
    /// Assembles a batch. `spans` must parallel `records`.
    pub fn new(records: Records, spans: Vec<u64>, end_offset: u64, high_watermark: u64) -> Self {
        debug_assert_eq!(records.len(), spans.len());
        MessageBatch {
            records,
            spans,
            end_offset,
            high_watermark,
        }
    }

    /// An empty batch: the consumer was tailing at `offset`.
    pub fn empty(offset: u64, high_watermark: u64) -> Self {
        MessageBatch {
            records: Records::default(),
            spans: Vec::new(),
            end_offset: offset,
            high_watermark,
        }
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Offset of the first record, if any.
    pub fn base_offset(&self) -> Option<u64> {
        self.records.first().map(|r| r.offset)
    }

    /// The next fetch position: one past the last record, or the
    /// requested offset when the batch is empty.
    pub fn end_offset(&self) -> u64 {
        self.end_offset
    }

    /// The partition's high watermark observed at fetch time.
    pub fn high_watermark(&self) -> u64 {
        self.high_watermark
    }

    /// The raw records, in offset order.
    pub fn records(&self) -> &Records {
        &self.records
    }

    /// Causal span of the `i`-th record (0 when unknown).
    pub fn span_at(&self, i: usize) -> u64 {
        self.spans.get(i).copied().unwrap_or(0)
    }

    /// Sum of payload (value) bytes across the batch.
    pub fn payload_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.value.len() as u64).sum()
    }

    /// Decomposes lazily into [`Message`]s: each item is materialized
    /// on demand and its payload shares the batch's buffers.
    pub fn messages(&self) -> impl Iterator<Item = Message> + '_ {
        self.records.iter().enumerate().map(|(i, r)| Message {
            offset: r.offset,
            timestamp: r.timestamp,
            key: r.key.clone(),
            value: r.value.clone(),
            span: self.span_at(i),
        })
    }

    /// Consumes the batch into owned [`Message`]s.
    pub fn into_messages(self) -> Vec<Message> {
        let spans = self.spans;
        self.records
            .into_vec()
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let span = spans.get(i).copied().unwrap_or(0);
                let mut m = Message::from(r);
                m.span = span;
                m
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let tp = TopicPartition::new("events", 3);
        assert_eq!(tp.to_string(), "events-3");
    }

    #[test]
    fn ordering_by_topic_then_partition() {
        let a = TopicPartition::new("a", 9);
        let b = TopicPartition::new("b", 0);
        assert!(a < b);
        assert!(TopicPartition::new("a", 1) < TopicPartition::new("a", 2));
    }

    #[test]
    fn message_batch_decomposes_lazily_and_zero_copy() {
        let r0 = liquid_log::Record {
            offset: 4,
            timestamp: 1,
            key: None,
            value: Bytes::from_static(b"alpha"),
        };
        let r1 = liquid_log::Record {
            offset: 6, // compaction hole at 5
            timestamp: 2,
            key: Some(Bytes::from_static(b"k")),
            value: Bytes::from_static(b"beta"),
        };
        let backing = r0.value.as_slice().as_ptr();
        let batch = MessageBatch::new(vec![r0, r1].into(), vec![11, 0], 7, 7);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.base_offset(), Some(4));
        assert_eq!(batch.end_offset(), 7, "one past the last record");
        assert_eq!(batch.payload_bytes(), 9);
        let msgs: Vec<Message> = batch.messages().collect();
        assert_eq!(msgs[0].span, 11);
        assert_eq!(msgs[1].span, 0);
        // Decomposition shares the record's buffer, never copies it.
        assert_eq!(msgs[0].value.as_slice().as_ptr(), backing);
        let owned = batch.into_messages();
        assert_eq!(owned.len(), 2);
        assert_eq!(owned[1].offset, 6);
    }

    #[test]
    fn empty_message_batch_keeps_requested_offset() {
        let b = MessageBatch::empty(9, 9);
        assert!(b.is_empty());
        assert_eq!(b.end_offset(), 9);
        assert_eq!(b.base_offset(), None);
        assert_eq!(b.messages().count(), 0);
    }

    #[test]
    fn message_from_record() {
        let r = liquid_log::Record {
            offset: 7,
            timestamp: 99,
            key: Some(Bytes::from_static(b"k")),
            value: Bytes::from_static(b"v"),
        };
        let m: Message = r.into();
        assert_eq!(m.offset, 7);
        assert_eq!(m.key.as_deref(), Some(b"k".as_ref()));
    }
}
