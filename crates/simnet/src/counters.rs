//! [`counters!`](crate::counters): metrics structs whose counters are
//! named exactly once.

/// Declares a metrics struct from one list of counter names.
///
/// Each name before the optional `;` becomes a documented `pub u64`
/// field; each `name: Type` after it (per-job maps, round logs — what is
/// not a counter) becomes a `pub` field of that type.  The struct gets
/// `counters(&self)`, an iterator over `(field name, value)` of the `u64`
/// counters only, in declaration order.  Telemetry exports walk that
/// iterator, so a counter added to the struct is exported without a
/// second list to keep in sync.
///
/// ```
/// rpcv_simnet::counters! {
///     /// Example observations.
///     #[derive(Debug, Default)]
///     pub struct Seen {
///         /// Frames received.
///         frames,
///         /// Frames rejected.
///         rejected;
///         /// Not a counter: skipped by `counters()`.
///         last: Option<u64>,
///     }
/// }
/// let s = Seen { frames: 3, ..Default::default() };
/// assert_eq!(s.counters().collect::<Vec<_>>(), [("frames", 3), ("rejected", 0)]);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$cdoc:meta])* $counter:ident ),+ $(,)?
            $( ; $( $(#[$fdoc:meta])* $field:ident : $ty:ty ),* $(,)? )?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$cdoc])* pub $counter: u64, )+
            $( $( $(#[$fdoc])* pub $field: $ty, )* )?
        }

        impl $name {
            /// Every `u64` counter as `(field name, value)`, in
            /// declaration order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$( (stringify!($counter), self.$counter) ),+].into_iter()
            }
        }
    };
}
